//! Property-based tests (proptest) over the core data structures and
//! invariants: trace generation, genome operators, scoring helpers, the
//! deterministic PRNG and the bottleneck queue.

use cc_fuzz::analysis::timeseries::{mean_of_lowest_fraction, percentile, windowed_throughput_bps};
use cc_fuzz::fuzz::genome::{Genome, LinkGenome, TrafficGenome};
use cc_fuzz::fuzz::trace_gen::{dist_packets, DistPacketsParams};
use cc_fuzz::netsim::packet::DataPacket;
use cc_fuzz::netsim::queue::{GatewayQueue, Qdisc, QueueCapacity};
use cc_fuzz::netsim::rng::SimRng;
use cc_fuzz::netsim::time::{ceil_to_u64, round_to_u64, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dist_packets_count_sortedness_and_bounds(
        num in 0usize..3_000,
        duration_ms in 100u64..10_000,
        k_agg_ms in 1u64..500,
        enforce in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let params = DistPacketsParams {
            k_agg: SimDuration::from_millis(k_agg_ms),
            enforce_rate_bounds: enforce,
            ..Default::default()
        };
        let end = SimTime::from_millis(duration_ms);
        let ts = dist_packets(num, SimTime::ZERO, end, &params, &mut rng);
        prop_assert_eq!(ts.len(), num);
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(ts.iter().all(|&t| t <= end));
    }

    #[test]
    fn link_genome_mutation_preserves_count_and_validity(
        packets in 1usize..2_000,
        seed in any::<u64>(),
        mutations in 1usize..5,
    ) {
        let mut rng = SimRng::new(seed);
        let duration = SimDuration::from_secs(3);
        let mut genome = LinkGenome::generate(packets, duration, SimDuration::from_millis(50), &mut rng);
        for _ in 0..mutations {
            genome = genome.mutate(&mut rng);
            prop_assert_eq!(genome.packet_count(), packets);
            prop_assert!(genome.validate().is_ok());
        }
    }

    #[test]
    fn link_annealing_preserves_count_and_validity(
        packets in 3usize..2_000,
        seed in any::<u64>(),
        window in 1usize..10,
        noise_us in 0u64..2_000,
    ) {
        let mut rng = SimRng::new(seed);
        let duration = SimDuration::from_secs(3);
        let genome = LinkGenome::generate(packets, duration, SimDuration::from_millis(50), &mut rng);
        let annealed = genome.anneal(window, SimDuration::from_micros(noise_us), &mut rng);
        prop_assert_eq!(annealed.packet_count(), packets);
        prop_assert!(annealed.validate().is_ok());
    }

    #[test]
    fn traffic_genome_operators_respect_cap_and_validity(
        cap in 1usize..2_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let duration = SimDuration::from_secs(3);
        let a = TrafficGenome::generate(cap, duration, &mut rng);
        let b = TrafficGenome::generate(cap, duration, &mut rng);
        prop_assert!(a.packet_count() <= cap);
        prop_assert!(a.validate().is_ok());

        let m = a.mutate(&mut rng);
        prop_assert!(m.packet_count() <= cap);
        prop_assert!(m.validate().is_ok());

        let child = a.crossover(&b, &mut rng).expect("traffic crossover is defined");
        prop_assert!(child.packet_count() <= cap);
        prop_assert!(child.validate().is_ok());
    }

    #[test]
    fn windowed_throughput_conserves_packets(
        times_ms in proptest::collection::vec(0u64..5_000, 0..400),
        window_ms in 50u64..1_000,
    ) {
        let times: Vec<SimTime> = {
            let mut v: Vec<SimTime> = times_ms.iter().map(|&ms| SimTime::from_millis(ms)).collect();
            v.sort_unstable();
            v
        };
        let duration = SimDuration::from_millis(5_001);
        let window = SimDuration::from_millis(window_ms);
        let mss = 1_000u32;
        let windows = windowed_throughput_bps(&times, mss, window, duration);
        // Total bytes implied by the windowed rates equals packets * mss.
        let total_bytes: f64 = windows.iter().map(|(_, bps)| bps * window.as_secs_f64() / 8.0).sum();
        let expected = times.len() as f64 * mss as f64;
        prop_assert!((total_bytes - expected).abs() < 1e-6 * expected.max(1.0),
            "conservation violated: {} vs {}", total_bytes, expected);
    }

    #[test]
    fn percentile_is_bounded_and_monotone(
        mut values in proptest::collection::vec(-1e6f64..1e6, 1..200),
        p_lo in 0.0f64..50.0,
        p_hi in 50.0f64..100.0,
    ) {
        let lo = percentile(&values, p_lo);
        let hi = percentile(&values, p_hi);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(lo >= values[0] - 1e-9);
        prop_assert!(hi <= values[values.len() - 1] + 1e-9);
        prop_assert!(lo <= hi + 1e-9);
        // The lowest-fraction mean never exceeds the overall mean.
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!(mean_of_lowest_fraction(&values, 0.2) <= mean + 1e-9);
    }

    #[test]
    fn queue_conservation_under_random_arrivals(
        sizes in proptest::collection::vec(100u32..1_600, 1..300),
        capacity in 1usize..64,
        dequeue_every in 1usize..8,
    ) {
        let mut queue = GatewayQueue::new(Qdisc::DropTail, QueueCapacity::Packets(capacity), 0);
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        let mut dequeued = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            let pkt = DataPacket::cca(i as u64, size, false, SimTime::from_millis(i as u64));
            if queue.enqueue(pkt, SimTime::from_millis(i as u64)).accepted() {
                accepted += 1;
            } else {
                dropped += 1;
            }
            if i % dequeue_every == 0
                && queue.dequeue_at(SimTime::from_millis(i as u64), |_| unreachable!()).is_some()
            {
                dequeued += 1;
            }
        }
        let c = queue.counters();
        prop_assert_eq!(c.total_enqueued(), accepted);
        prop_assert_eq!(c.total_dropped(), dropped);
        prop_assert_eq!(c.total_dequeued(), dequeued);
        prop_assert_eq!(accepted, dequeued + queue.len() as u64);
        prop_assert!(queue.len() <= capacity);
    }

    #[test]
    fn rng_ranges_and_determinism(seed in any::<u64>(), lo in 0u64..1_000, span in 1u64..1_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.gen_range_u64(lo, lo + span);
            let y = b.gen_range_u64(lo, lo + span);
            prop_assert_eq!(x, y);
            prop_assert!((lo..lo + span).contains(&x));
            let f = a.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
            let _ = b.next_f64();
        }
    }
}

proptest! {
    // Full multi-flow simulations are orders of magnitude costlier than the
    // data-structure properties above, so this block runs fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multi_flow_conservation_across_n_flows(
        n_flows in 1usize..4,
        window in 2u64..40,
        queue_cap in 10usize..60,
        cross_packets in 0u64..400,
        stagger_ms in 0u64..1_000,
        seed in any::<u64>(),
    ) {
        // Total packets offered by N congestion-controlled flows equal the
        // packets the queue accepted plus the packets it dropped; accepted
        // packets are all either transmitted or still resident at the end.
        use cc_fuzz::netsim::sim::{run_multi_flow_simulation, FlowSpec};
        use cc_fuzz::netsim::cc::reference_cc::MiniAimdCc;
        use cc_fuzz::netsim::trace::TrafficTrace;

        let mut cfg = cc_fuzz::fuzz::campaign::paper_sim_base(SimDuration::from_secs(1));
        cfg.record_events = false;
        cfg.queue_capacity = QueueCapacity::Packets(queue_cap);
        let mut rng = SimRng::new(seed);
        let injections: Vec<SimTime> = (0..cross_packets)
            .map(|_| SimTime::from_micros(rng.gen_range_u64(0, 1_000_000)))
            .collect();
        let mut injections = injections;
        injections.sort_unstable();
        cfg.cross_traffic = TrafficTrace::new(injections.clone(), cfg.duration);

        let specs: Vec<FlowSpec<MiniAimdCc>> = (0..n_flows)
            .map(|i| FlowSpec {
                cc: MiniAimdCc::new(window),
                start: SimTime::from_millis(i as u64 * stagger_ms),
                stop: None,
            })
            .collect();
        let result = run_multi_flow_simulation(cfg, specs);

        prop_assert_eq!(result.stats.flows.len(), n_flows);
        let c = result.stats.queue_counters;
        // Offered = enqueued + dropped, per the whole CCA population.
        let sent: u64 = result.stats.flows.iter().map(|f| f.summary.transmissions).sum();
        prop_assert_eq!(sent, c.enqueued_cca + c.dropped_cca);
        // Per-flow drop counters decompose the aggregate exactly.
        let drops: u64 = result.stats.flows.iter().map(|f| f.summary.queue_drops).sum();
        prop_assert_eq!(drops, c.dropped_cca);
        // Cross traffic: every injection reached the gateway.
        prop_assert_eq!(
            c.enqueued_cross + c.dropped_cross,
            injections.len() as u64
        );
        // The queue conserves packets: dequeued + residual = enqueued, and
        // the residual fits in the configured capacity.
        let residual = c.total_enqueued() - c.total_dequeued();
        prop_assert!(residual as usize <= queue_cap);
        // Everything the link carried either arrived at a sink or was still
        // in flight (on the link or propagating) when the clock stopped.
        let arrived: u64 = result.stats.flows.iter().map(|f| f.sink_received).sum::<u64>()
            + result.stats.cross_delivered;
        prop_assert!(arrived <= c.total_dequeued());
    }

    #[test]
    fn dynamic_flow_conservation_under_churn(
        rate in 20.0f64..150.0,
        on_off in any::<bool>(),
        n_static in 1usize..3,
        max_concurrent in 4u32..40,
        min_packets in 1u64..4,
        size_span in 4u64..200,
        queue_cap in 10usize..60,
        seed in any::<u64>(),
    ) {
        // The dynamic-flow lifecycle invariants, under randomized arrival
        // processes and size distributions:
        //  * the active-set bookkeeping is exact — every spawned flow is
        //    either completed or still active at the end, never both;
        //  * exactly one FCT sample is recorded per completion;
        //  * per-flow packet conservation holds at recycle (tx == delivered
        //    + dropped once the flow's last packet leaves the network) —
        //    checked per flow by a debug assertion inside the recycler,
        //    which this debug-profile test exercises on every recycle, and
        //    here in aggregate over all recycled flows;
        //  * warm scratch reuse replays the identical behaviour digest.
        use cc_fuzz::netsim::cc::reference_cc::MiniAimdCc;
        use cc_fuzz::netsim::sim::{FlowSpec, Simulation};
        use cc_fuzz::netsim::workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

        let mut cfg = cc_fuzz::fuzz::campaign::paper_sim_base(SimDuration::from_secs(1));
        cfg.record_events = false;
        cfg.queue_capacity = QueueCapacity::Packets(queue_cap);
        cfg.seed = seed;
        cfg.arrivals = Some(ArrivalConfig {
            process: if on_off {
                ArrivalProcess::OnOff {
                    rate_per_sec: rate,
                    mean_on_secs: 0.2,
                    mean_off_secs: 0.1,
                }
            } else {
                ArrivalProcess::Poisson { rate_per_sec: rate }
            },
            size: SizeDistribution {
                shape: 1.2,
                min_packets,
                max_packets: min_packets + size_span,
            },
            mice_threshold_packets: 32,
            max_concurrent,
            max_arrivals: 10_000,
        });

        let run = |sim: &mut Simulation<MiniAimdCc>| {
            let mut specs: Vec<FlowSpec<MiniAimdCc>> = (0..n_static)
                .map(|i| FlowSpec {
                    cc: MiniAimdCc::new(8),
                    start: SimTime::from_millis(i as u64 * 50),
                    stop: None,
                })
                .collect();
            sim.load(cfg.clone(), &mut specs);
            sim.install_arrivals(&mut vec![MiniAimdCc::new(4), MiniAimdCc::new(8)]);
            sim.run()
        };
        let mut sim = Simulation::default();
        let result = run(&mut sim);

        // Static flows keep their per-flow stats slots regardless of churn.
        prop_assert_eq!(result.stats.flows.len(), n_static);
        let w = result.stats.workload().expect("workload stats present");
        // Active-set accounting: completed flows leave the active set, so
        // the spawn count decomposes exactly and nothing is counted twice.
        prop_assert_eq!(w.spawned, w.completed + w.active_at_end);
        // Exactly one FCT sample per completion, across both size classes.
        prop_assert_eq!(w.fct_count(), w.completed);
        // The sample reservoir is a bounded subset of the completions.
        prop_assert!(w.samples.len() as u64 <= w.completed);
        prop_assert!(w.samples.len() <= cc_fuzz::netsim::stats::WorkloadStats::MAX_SAMPLES);
        // Aggregate packet conservation over every recycled flow.
        prop_assert_eq!(w.completed_tx, w.completed_delivered + w.completed_dropped);
        let spawned = w.spawned;
        let digest = result.stats.digest();

        // A second run through the warm simulation (slab, calendar, pools
        // all recycled) must replay the byte-identical behaviour.
        sim.recycle_stats(result.stats);
        let again = run(&mut sim);
        prop_assert_eq!(again.stats.workload().expect("workload stats").spawned, spawned);
        prop_assert_eq!(again.stats.digest(), digest);
    }
}

/// Case count override used by the CI property job (and local deep sweeps):
/// `CCFUZZ_PROPTEST_CASES=1000 cargo test --release --test property_based`.
fn env_cases(default: u32) -> ProptestConfig {
    let n = std::env::var("CCFUZZ_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(n)
}

proptest! {
    // Pure arithmetic: thousands of cases cost milliseconds.
    #![proptest_config(env_cases(4096))]

    #[test]
    fn inline_round_and_ceil_match_libm_bit_for_bit(
        bits in any::<u64>(),
        whole in 0u64..(1 << 54),
        frac in 0.0f64..1.0,
    ) {
        const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
        let edges = [
            0.0, -0.0, 0.49999999999999994, 0.5, 1.5, 2.5, 1e9 + 0.5, TWO_POW_52 - 1.5,
            TWO_POW_52 - 1.0, TWO_POW_52 - 0.5, TWO_POW_52, TWO_POW_52 + 1.0,
            2.0 * TWO_POW_52, 18_446_744_073_709_551_616.0, 1e300, f64::MIN_POSITIVE,
            f64::from_bits(1), f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.3, -0.5, -1.5, -1e300,
        ];
        // Random bit patterns reach every exponent, NaNs and subnormals; the
        // ranged values crowd the interesting band around and below 2^52.
        let w = whole as f64;
        let random = [f64::from_bits(bits), w + frac, w + 0.5, (w + frac) / 1024.0, -(w + frac)];
        for x in edges.into_iter().chain(random) {
            prop_assert_eq!(round_to_u64(x), x.round() as u64, "round({:e})", x);
            prop_assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil({:e})", x);
        }
    }
}

proptest! {
    // Each case is a full multi-flow simulation, so the in-tree default is
    // modest; the CI property job raises it to 1000 via the env override.
    #![proptest_config(env_cases(24))]

    #[test]
    fn ecn_conservation_across_all_qdiscs(
        qdisc_kind in 0usize..3,
        ecn in any::<bool>(),
        n_flows in 1usize..4,
        cca_raw in collection::vec(0usize..7, 3..4),
        queue_cap in 20usize..80,
        cross_packets in 0u64..300,
        red_min in 5usize..40,
        red_span in 5usize..40,
        red_p in 0.05f64..1.0,
        codel_target_ms in 1u64..30,
        codel_interval_ms in 20u64..200,
        seed in any::<u64>(),
    ) {
        // End-to-end ECN conservation: every CE mark applied at the gateway
        // is observed by exactly one receiver and echoed exactly once — no
        // mark is ever lost or double-counted — and every transmission is
        // either delivered or dropped, under all three queue disciplines.
        //
        // Flows stop at 40% of the scenario and cross traffic ends by 30%,
        // leaving >1 s for the queue, the link and the delayed-ACK timers to
        // drain completely; with an empty network the conservation laws are
        // exact equalities rather than inequalities.
        use cc_fuzz::cca::CcaKind;
        use cc_fuzz::netsim::queue::Qdisc;
        use cc_fuzz::netsim::sim::{run_multi_flow_simulation, FlowSpec};
        use cc_fuzz::netsim::trace::TrafficTrace;

        let duration = SimDuration::from_secs(2);
        let mut cfg = cc_fuzz::fuzz::campaign::paper_sim_base(duration);
        cfg.record_events = false;
        cfg.queue_capacity = QueueCapacity::Packets(queue_cap);
        cfg.seed = seed;
        cfg.ecn_enabled = ecn;
        cfg.qdisc = match qdisc_kind {
            0 => Qdisc::DropTail,
            1 => Qdisc::Red {
                min_thresh: red_min,
                max_thresh: red_min + red_span,
                mark_probability: red_p,
            },
            _ => Qdisc::CoDel {
                target: SimDuration::from_millis(codel_target_ms),
                interval: SimDuration::from_millis(codel_interval_ms),
            },
        };
        cfg.validate().unwrap();

        let mut rng = SimRng::new(seed ^ 0x5eed);
        let injections: Vec<SimTime> = {
            let mut v: Vec<SimTime> = (0..cross_packets)
                .map(|_| SimTime::from_micros(rng.gen_range_u64(0, 600_000)))
                .collect();
            v.sort_unstable();
            v
        };
        cfg.cross_traffic = TrafficTrace::new(injections.clone(), duration);

        let stop = SimTime::from_millis(800);
        let specs: Vec<FlowSpec<cc_fuzz::cca::CcaDispatch>> = (0..n_flows)
            .map(|i| FlowSpec {
                cc: CcaKind::ALL[cca_raw[i % cca_raw.len()]].build(10),
                start: SimTime::from_millis(i as u64 * 100),
                stop: Some(stop),
            })
            .collect();
        let result = run_multi_flow_simulation(cfg, specs);
        prop_assert!(!result.stats.truncated);

        let c = result.stats.queue_counters;
        let mut total_marked = 0u64;
        for (i, f) in result.stats.flows.iter().enumerate() {
            let s = &f.summary;
            // Transmission conservation: with the network fully drained,
            // every transmitted packet was delivered to the sink or dropped
            // at the gateway (tail or AQM head drop) — nothing is in queue
            // or in flight.
            prop_assert_eq!(
                s.transmissions,
                f.sink_received + s.queue_drops,
                "flow {}: tx {} != sink {} + drops {}",
                i, s.transmissions, f.sink_received, s.queue_drops
            );
            // Mark conservation: every CE mark applied at the gateway
            // reached the receiver, and the receiver echoed each exactly
            // once.
            prop_assert_eq!(s.ce_marked, s.ce_received, "flow {i}: marks lost in transit");
            prop_assert_eq!(s.ce_received, s.ece_echoed, "flow {i}: echoes lost or duplicated");
            // The sender can miss echoes whose ACKs arrived after its stop
            // time, but can never see more than were sent.
            prop_assert!(s.ece_acked <= s.ece_echoed);
            if !ecn {
                prop_assert_eq!(s.ce_marked, 0, "marks without ECN negotiation");
            }
            total_marked += s.ce_marked;
        }
        // Per-flow mark counters decompose the queue aggregate exactly, and
        // the non-ECN-capable cross traffic is never marked.
        prop_assert_eq!(c.marked_cca, total_marked);
        prop_assert_eq!(c.marked_cross, 0);
        // Cross traffic: every injection is either delivered or dropped,
        // exactly once (the simulation-level counters attribute a CoDel
        // head drop to the packet once, unlike the raw queue counters,
        // where a head-dropped packet appears as both enqueued and
        // dropped).
        prop_assert_eq!(
            result.stats.cross_delivered + result.stats.cross_dropped,
            injections.len() as u64
        );
        prop_assert!(c.enqueued_cross <= injections.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Observability: the metric registry's sharded histograms and counters must
// aggregate losslessly regardless of how work was split across workers.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_merge_is_order_independent_and_lossless(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..400),
    ) {
        use cc_fuzz::obs::Histogram;

        // Recording order does not matter: forward and reverse recordings
        // of the same values give the same histogram.
        let direct = Histogram::new();
        for &v in &values {
            direct.record(v);
        }
        let reverse = Histogram::new();
        for &v in values.iter().rev() {
            reverse.record(v);
        }
        prop_assert_eq!(reverse.snapshot(), direct.snapshot());

        // Lossless aggregates, and percentiles within bucket error of a
        // sorted-Vec reference: exact below 16; above, the within-bucket
        // interpolated estimate stays inside the (≤ 25 % wide) bucket that
        // holds the exact rank value, so the relative error is bounded on
        // *both* sides (the estimate may sit above or below the exact
        // value, unlike the old bucket-floor reader).
        let snap = direct.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1];
            let approx = snap.percentile(p);
            prop_assert!(
                (snap.min..=snap.max).contains(&approx),
                "p{}: approx {} outside observed range",
                p, approx
            );
            if exact < 16 {
                prop_assert_eq!(approx, exact, "p{} must be exact below 16", p);
            } else {
                let err = (exact as f64 - approx as f64).abs() / exact as f64;
                prop_assert!(
                    err <= 0.25,
                    "p{}: approx {} more than one bucket away from exact {}",
                    p, approx, exact
                );
            }
        }
    }
}

proptest! {
    // Thread-spawning cases are heavier; fewer of them suffice.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_counters_match_single_threaded_totals(
        increments in proptest::collection::vec(0u64..1_000, 1..200),
        threads in 1usize..6,
    ) {
        use cc_fuzz::obs::{Counter, Histogram};
        use std::sync::Arc;

        let expected: u64 = increments.iter().sum();
        let counter = Arc::new(Counter::new());
        let histogram = Arc::new(Histogram::new());
        let chunks: Vec<Vec<u64>> = (0..threads)
            .map(|t| increments.iter().copied().skip(t).step_by(threads).collect())
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let counter = Arc::clone(&counter);
                let histogram = Arc::clone(&histogram);
                std::thread::spawn(move || {
                    for v in chunk {
                        counter.add(v);
                        histogram.record(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(counter.get(), expected);
        let concurrent = histogram.snapshot();
        prop_assert_eq!(concurrent.count, increments.len() as u64);
        prop_assert_eq!(concurrent.sum, expected);

        // A single-threaded recording of the same values produces the
        // byte-identical snapshot.
        let reference = Histogram::new();
        for &v in &increments {
            reference.record(v);
        }
        prop_assert_eq!(reference.snapshot(), concurrent);
    }
}
