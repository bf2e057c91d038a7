//! Perf-trajectory reporter: times the simulator hot path on five fixed
//! workloads and emits `BENCH_sim.json` so every PR has a comparable
//! evals/sec / events/sec / ns-per-event record.
//!
//! Workloads (all deterministic):
//! * `single_flow`   — one Reno flow on the paper's clean 12 Mbps link, 5 s.
//! * `fairness_8flow`— eight mixed-CCA flows sharing the bottleneck, 5 s.
//! * `fairness_32flow` — thirty-two mixed-CCA flows on the same bottleneck,
//!   5 s (tracks flow-count scaling beyond N=8).
//! * `multi_hop`     — a 3-hop parking lot (long Reno flow over the chain
//!   plus a short competitor on the middle bottleneck), 5 s.
//! * `workload_2k`   — flow-churn stress: one always-on elephant plus a
//!   400 flows/s Poisson arrival process (~2000 dynamically spawned and
//!   recycled flows with bounded-Pareto sizes), 5 s. Exercises the slab
//!   recycling + active-set hot path.
//! * `mini_campaign` — a 2-generation traffic-fuzzing GA (4 islands × 8).
//!
//! A machine-speed calibration loop (FNV hashing) is timed alongside so the
//! regression check can normalise across hosts: the gate compares
//! `evals_per_sec / calibration_mops` ratios, not raw wall-clock numbers.
//!
//! Usage:
//!   bench_report [--fast] [--out PATH] [--check PATH] [--tolerance F]
//!
//! `--check` loads a previously committed report and exits non-zero when any
//! gated workload's normalised evals/sec (mini_campaign, fairness_8flow,
//! fairness_32flow, multi_hop and workload_2k) regressed by more than `--tolerance`
//! (default 0.20, i.e. 20 %). A zeroed workload block in the committed
//! report is a hard failure, not a silent skip: an all-zero anchor would
//! otherwise let any regression through for that workload. The reference is
//! read before the report is written, and an `--out` (default
//! `BENCH_sim.json`) that resolves to the `--check` file exits 2: the gate
//! would compare the fresh report with itself.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{paper_sim_base, Campaign, FuzzMode};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::sim::{run_multi_flow_simulation, run_simulation, FlowSpec};
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_netsim::trace::TrafficTrace;
use ccfuzz_obs::{Histogram, HistogramSnapshot, HuntTelemetry, LatencyQuantiles};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Timing record for one workload.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
struct WorkloadReport {
    /// Simulations (fitness evaluations) completed per second, from the
    /// fastest rep (min-time estimator; the workloads are deterministic).
    evals_per_sec: f64,
    /// Calendar events processed per second, from the fastest rep.
    events_per_sec: f64,
    /// Nanoseconds per calendar event, from the fastest rep.
    ns_per_event: f64,
    /// Events processed per evaluation (workload shape fingerprint).
    events_per_eval: f64,
    /// Repetitions timed.
    reps: u64,
}

impl WorkloadReport {
    /// `true` for the all-zero block a report decodes to for a workload it
    /// predates; such blocks are left out on output.
    fn is_unmeasured(&self) -> bool {
        self.reps == 0
    }
}

/// Per-workload eval-latency percentiles (nanoseconds per evaluation).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
struct LatencyReport {
    /// One Reno flow, clean link.
    single_flow: LatencyQuantiles,
    /// Eight mixed-CCA flows plus cross traffic.
    fairness_8flow: LatencyQuantiles,
    /// Thirty-two mixed-CCA flows plus cross traffic. Zeroed in reports
    /// recorded before the workload existed.
    #[serde(default)]
    fairness_32flow: LatencyQuantiles,
    /// Three-hop parking lot.
    multi_hop: LatencyQuantiles,
    /// Flow-churn workload (~2000 arriving flows). Zeroed in reports
    /// recorded before the workload existed.
    #[serde(default)]
    workload_2k: LatencyQuantiles,
    /// Per-evaluation latency inside the GA campaign (from the campaign's
    /// own telemetry histogram, not per-rep wall time).
    mini_campaign: LatencyQuantiles,
}

/// The full report written to `BENCH_sim.json`.
///
/// Fields added after the first committed report decode to their default
/// when missing: the committed file, and the frozen baseline block nested in
/// it, predate them, and a strict decode would silently drop that block on
/// the carry-forward read.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct BenchReport {
    /// Report schema version.
    schema: u32,
    /// Free-form label for the code state that produced the numbers.
    label: String,
    /// Machine-speed proxy: millions of FNV mix ops per second.
    calibration_mops: f64,
    /// One Reno flow, clean link.
    single_flow: WorkloadReport,
    /// Eight mixed-CCA flows plus cross traffic.
    fairness_8flow: WorkloadReport,
    /// Thirty-two mixed-CCA flows plus cross traffic. Absent from reports
    /// recorded before the workload existed (a zeroed block would read as a
    /// broken gate anchor).
    #[serde(default, skip_serializing_if = "WorkloadReport::is_unmeasured")]
    fairness_32flow: WorkloadReport,
    /// Three-hop parking lot: one long flow plus one short-path flow.
    /// Zeroed in reports recorded before the topology engine existed.
    multi_hop: WorkloadReport,
    /// Flow-churn stress: ~2000 dynamically arriving flows over 5 s.
    /// Absent from reports recorded before the flow-churn engine existed.
    #[serde(default, skip_serializing_if = "WorkloadReport::is_unmeasured")]
    workload_2k: WorkloadReport,
    /// Two-generation GA campaign.
    mini_campaign: WorkloadReport,
    /// Eval-latency p50/p95/p99 per workload. `None` in reports recorded
    /// before the telemetry subsystem existed, and omitted on output then,
    /// keeping old baseline blocks byte-stable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    eval_latency: Option<LatencyReport>,
    /// Numbers recorded before the hot-path overhaul, normalised against
    /// that run's own calibration (kept in the same file so the trajectory
    /// travels with the repo).
    #[serde(default)]
    baseline: Option<Box<BenchReport>>,
}

impl BenchReport {
    /// Host-normalised mini-campaign throughput (evals/sec per calibration
    /// MOPS); comparable across machines of different speeds.
    fn normalized_campaign_rate(&self) -> f64 {
        self.normalized_rate(&self.mini_campaign)
    }

    /// Host-normalised throughput for one workload block.
    fn normalized_rate(&self, workload: &WorkloadReport) -> f64 {
        if self.calibration_mops <= 0.0 {
            return 0.0;
        }
        workload.evals_per_sec / self.calibration_mops
    }

    /// The workloads the `--check` regression gate covers, by name.
    fn gated_workloads(&self) -> [(&'static str, &WorkloadReport); 5] {
        [
            ("mini_campaign", &self.mini_campaign),
            ("fairness_8flow", &self.fairness_8flow),
            ("fairness_32flow", &self.fairness_32flow),
            ("multi_hop", &self.multi_hop),
            ("workload_2k", &self.workload_2k),
        ]
    }
}

/// One round of a fixed CPU-bound loop whose throughput proxies single-core
/// machine speed; returns millions of FNV mix ops per second.
///
/// `main` samples this around every workload and keeps the *maximum*: the
/// loop is pure CPU, so interference can only slow it down, and shared
/// hosts speed up and slow down on second-to-minute timescales. The
/// workload rates are min-time estimators (they report the fastest rep,
/// i.e. the fastest host window the run saw), so the divisor must estimate
/// that same fastest window — a single start-of-run calibration taken
/// during a slow window inflates every normalised rate by the full
/// window-to-window swing. (An earlier version measured once up front and
/// kept the slowest of two rounds; its anchors drifted ±30 % run to run
/// for exactly this reason.)
fn calibration_round() -> f64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const ROUNDS: u64 = 40_000_000;
    let start = Instant::now();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..ROUNDS {
        h ^= i;
        h = h.wrapping_mul(PRIME);
    }
    std::hint::black_box(h);
    let secs = start.elapsed().as_secs_f64();
    ROUNDS as f64 / secs / 1e6
}

fn quantiles(snap: &HistogramSnapshot) -> LatencyQuantiles {
    LatencyQuantiles {
        p50_ns: snap.percentile(50.0),
        p95_ns: snap.percentile(95.0),
        p99_ns: snap.percentile(99.0),
    }
}

fn time_workload<F: FnMut() -> u64>(
    reps: u64,
    mut run_once: F,
) -> (WorkloadReport, LatencyQuantiles) {
    // Warm-up run (untimed) so allocator state and caches settle.
    std::hint::black_box(run_once());
    let latency = Histogram::new();
    let mut events_total = 0u64;
    // Every workload is deterministic, so all reps do identical work and
    // differ only in host interference — which can only add time. The
    // throughput numbers therefore come from the *fastest* rep (the
    // classic min-time estimator); a mean would let one preempted rep on a
    // shared runner drag the reported rate and trip the gate spuriously.
    // The latency histogram still records every rep, so interference stays
    // visible in the percentile spread.
    let mut best_secs = f64::INFINITY;
    for _ in 0..reps {
        let rep_start = Instant::now();
        events_total += run_once();
        let elapsed = rep_start.elapsed();
        latency.record(elapsed.as_nanos() as u64);
        best_secs = best_secs.min(elapsed.as_secs_f64());
    }
    let best_secs = best_secs.max(1e-9);
    let events_per_eval = events_total as f64 / reps.max(1) as f64;
    let report = WorkloadReport {
        evals_per_sec: 1.0 / best_secs,
        events_per_sec: events_per_eval / best_secs,
        ns_per_event: best_secs * 1e9 / events_per_eval.max(1.0),
        events_per_eval,
        reps,
    };
    (report, quantiles(&latency.snapshot()))
}

fn single_flow(reps: u64) -> (WorkloadReport, LatencyQuantiles) {
    time_workload(reps, || {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        let result = run_simulation(cfg, CcaKind::Reno.build());
        std::hint::black_box(result.stats.events_processed)
    })
}

fn fairness_8flow(reps: u64) -> (WorkloadReport, LatencyQuantiles) {
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
    time_workload(reps, || {
        let mut cfg = paper_sim_base(duration);
        cfg.record_events = false;
        cfg.cross_traffic = TrafficTrace::new(injections.clone(), duration);
        let specs: Vec<FlowSpec<_>> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| FlowSpec {
                cc: kind.build(),
                start: SimTime::from_millis(i as u64 * 250),
                stop: None,
            })
            .collect();
        let result = run_multi_flow_simulation(cfg, specs);
        std::hint::black_box(result.stats.events_processed)
    })
}

fn fairness_32flow(reps: u64) -> (WorkloadReport, LatencyQuantiles) {
    let duration = SimDuration::from_secs(5);
    let kinds = [CcaKind::Bbr, CcaKind::Reno, CcaKind::Cubic, CcaKind::Vegas];
    let injections: Vec<SimTime> = (0..1_000)
        .map(|i| SimTime::from_micros(i * 5_000))
        .collect();
    time_workload(reps, || {
        let mut cfg = paper_sim_base(duration);
        cfg.record_events = false;
        cfg.cross_traffic = TrafficTrace::new(injections.clone(), duration);
        let specs: Vec<FlowSpec<_>> = (0..32)
            .map(|i| FlowSpec {
                cc: kinds[i % kinds.len()].build(),
                start: SimTime::from_millis(i as u64 * 100),
                stop: None,
            })
            .collect();
        let result = run_multi_flow_simulation(cfg, specs);
        std::hint::black_box(result.stats.events_processed)
    })
}

fn multi_hop(reps: u64) -> (WorkloadReport, LatencyQuantiles) {
    use ccfuzz_netsim::topology::{HopConfig, HopRange, Topology};
    let duration = SimDuration::from_secs(5);
    time_workload(reps, || {
        let mut cfg = paper_sim_base(duration);
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
                cc: CcaKind::Reno.build(),
                start: SimTime::ZERO,
                stop: None,
            },
            FlowSpec {
                cc: CcaKind::Reno.build(),
                start: SimTime::from_millis(500),
                stop: None,
            },
        ];
        let result = run_multi_flow_simulation(cfg, specs);
        std::hint::black_box(result.stats.events_processed)
    })
}

fn workload_2k(reps: u64) -> (WorkloadReport, LatencyQuantiles) {
    use ccfuzz_netsim::sim::Simulation;
    use ccfuzz_netsim::workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};
    let duration = SimDuration::from_secs(5);
    time_workload(reps, || {
        let mut cfg = paper_sim_base(duration);
        cfg.record_events = false;
        // 400 flows/s x 5 s ≈ 2000 dynamic flows churning through the slab,
        // with a heavy-tailed size distribution so mice and elephants mix.
        cfg.arrivals = Some(ArrivalConfig {
            process: ArrivalProcess::Poisson {
                rate_per_sec: 400.0,
            },
            size: SizeDistribution {
                shape: 1.2,
                min_packets: 1,
                max_packets: 400,
            },
            mice_threshold_packets: 32,
            max_concurrent: 128,
            max_arrivals: 50_000,
        });
        // Arrivals clone their controller from a prototype pool.
        let mut specs = vec![FlowSpec {
            cc: CcaKind::Reno.build(),
            start: SimTime::ZERO,
            stop: None,
        }];
        let mut protos = vec![CcaKind::Reno.build(), CcaKind::Cubic.build()];
        let mut sim = Simulation::default();
        sim.load(cfg, &mut specs, &mut protos);
        sim.run();
        std::hint::black_box(sim.result().stats.events_processed)
    })
}

fn mini_campaign(reps: u64) -> (WorkloadReport, LatencyQuantiles) {
    let events_per_run: u64;
    let mut evals_per_run = 0u64;
    let mut ga = GaParams::quick();
    ga.islands = 4;
    ga.population_per_island = 8;
    ga.generations = 2;
    ga.threads = 1; // single-threaded: measures the hot path, not the scheduler
    ga.seed = 7;
    let campaign = Campaign::paper_standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SimDuration::from_secs(3),
        ga,
    );
    // Calibrate events/eval once (events_processed is not surfaced by the
    // GA result; one representative evaluation measures it).
    {
        let evaluator = campaign.evaluator();
        let genome = {
            let mut rng = ccfuzz_netsim::rng::SimRng::new(ga.seed);
            ccfuzz_core::genome::TrafficGenome::generate(
                campaign.traffic_max_packets,
                campaign.duration,
                &mut rng,
            )
        };
        let run = evaluator.simulate_once(&genome, false);
        events_per_run = run.stats.events_processed;
    }
    // The campaign's own telemetry histogram gives true per-evaluation
    // latency quantiles (per-rep wall time would only show whole campaigns).
    let telemetry = HuntTelemetry::new();
    let (report, _per_rep) = time_workload(reps, || {
        let result = campaign.run::<TrafficGenome>(Some(&telemetry));
        evals_per_run = result.total_evaluations as u64;
        std::hint::black_box(result.total_evaluations as u64 * events_per_run)
    });
    let per_eval = quantiles(&telemetry.metrics.eval_latency_ns.snapshot());
    // Re-express per-evaluation: the campaign runs `evals_per_run` sims.
    let report = WorkloadReport {
        evals_per_sec: report.evals_per_sec * evals_per_run as f64,
        events_per_sec: report.events_per_sec,
        ns_per_event: report.ns_per_event,
        events_per_eval: events_per_run as f64,
        reps: report.reps,
    };
    (report, per_eval)
}

/// Refuses an `--out` that resolves to the `--check` reference: the report
/// would overwrite the reference and then be gated against itself.
fn refuse_self_check(out: &Path, check: &Path) -> Result<(), String> {
    let resolved = |p: &Path| std::fs::canonicalize(p).ok();
    match resolved(check) {
        Some(reference) if resolved(out).as_ref() == Some(&reference) => Err(format!(
            "--out {} is the --check reference {}; write the report elsewhere",
            out.display(),
            check.display()
        )),
        _ => Ok(()),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_report [--fast] [--out PATH] [--check PATH] [--tolerance F] [--label S]"
    );
    std::process::exit(2);
}

fn main() {
    let mut fast = false;
    let mut out_path = String::from("BENCH_sim.json");
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.20f64;
    let mut label = String::from("current");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--check" => check_path = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--label" => label = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    // The reference is read before anything is written: a report checked
    // against the file it was just written to would always pass.
    let committed: Option<BenchReport> = check_path.as_deref().map(|path| {
        if let Err(e) = refuse_self_check(Path::new(&out_path), Path::new(path)) {
            eprintln!("bench_report: {e}");
            std::process::exit(2);
        }
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check {path}: cannot read: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("--check {path}: bad JSON: {e}"))
    });
    // Full-mode rep counts are high enough that p95 and p99 are distinct
    // ranks (ceil(.99 n) > ceil(.95 n) needs n > 100): the arena-era hot
    // path runs hundreds of evals/sec, so 120+ reps cost well under a
    // second per workload and buy real latency distributions instead of
    // the max-collapsed percentiles a handful of reps produce.
    // Fast-mode rep counts are post-overhaul: a sim-workload rep costs
    // 1-4 ms now, so ~10 reps per workload add under 100 ms total and give
    // the min-time estimator enough draws to catch an interference-free
    // window on a shared runner. The campaign stays at 3 reps in both
    // modes (a single-rep campaign measurement is noisy enough to trip the
    // 20 % gate without any code change).
    let (reps_single, reps_fair, reps_fair32, reps_multihop, reps_workload, reps_campaign) = if fast
    {
        (10, 8, 8, 10, 8, 3)
    } else {
        (200, 120, 120, 120, 120, 3)
    };

    // Calibration is sampled before every workload and once at the end,
    // max kept — see `calibration_round` for why.
    eprintln!("calibrating machine speed...");
    let mut mops = calibration_round().max(calibration_round());

    eprintln!("timing single_flow ({reps_single} reps)...");
    let (single, single_lat) = single_flow(reps_single);
    eprintln!(
        "  {:.2} evals/s, {:.2} Mevents/s, {:.0} ns/event",
        single.evals_per_sec,
        single.events_per_sec / 1e6,
        single.ns_per_event
    );

    mops = mops.max(calibration_round());
    eprintln!("timing fairness_8flow ({reps_fair} reps)...");
    let (fair, fair_lat) = fairness_8flow(reps_fair);
    eprintln!(
        "  {:.2} evals/s, {:.2} Mevents/s, {:.0} ns/event",
        fair.evals_per_sec,
        fair.events_per_sec / 1e6,
        fair.ns_per_event
    );

    mops = mops.max(calibration_round());
    eprintln!("timing fairness_32flow ({reps_fair32} reps)...");
    let (fair32, fair32_lat) = fairness_32flow(reps_fair32);
    eprintln!(
        "  {:.2} evals/s, {:.2} Mevents/s, {:.0} ns/event",
        fair32.evals_per_sec,
        fair32.events_per_sec / 1e6,
        fair32.ns_per_event
    );

    mops = mops.max(calibration_round());
    eprintln!("timing multi_hop ({reps_multihop} reps)...");
    let (multihop, multihop_lat) = multi_hop(reps_multihop);
    eprintln!(
        "  {:.2} evals/s, {:.2} Mevents/s, {:.0} ns/event",
        multihop.evals_per_sec,
        multihop.events_per_sec / 1e6,
        multihop.ns_per_event
    );

    mops = mops.max(calibration_round());
    eprintln!("timing workload_2k ({reps_workload} reps)...");
    let (workload, workload_lat) = workload_2k(reps_workload);
    eprintln!(
        "  {:.2} evals/s, {:.2} Mevents/s, {:.0} ns/event",
        workload.evals_per_sec,
        workload.events_per_sec / 1e6,
        workload.ns_per_event
    );

    mops = mops.max(calibration_round());
    eprintln!("timing mini_campaign ({reps_campaign} reps)...");
    let (campaign, campaign_lat) = mini_campaign(reps_campaign);
    eprintln!(
        "  {:.2} evals/s, {:.2} Mevents/s (est), {:.0} ns/event (est)",
        campaign.evals_per_sec,
        campaign.events_per_sec / 1e6,
        campaign.ns_per_event
    );
    eprintln!(
        "  eval latency p50/p95/p99: {}/{}/{} us",
        campaign_lat.p50_ns / 1_000,
        campaign_lat.p95_ns / 1_000,
        campaign_lat.p99_ns / 1_000
    );

    mops = mops.max(calibration_round());
    eprintln!("calibration: {mops:.1} Mops/s (max over interleaved rounds)");

    // Carry the committed baseline forward (if the old report had one, keep
    // the *oldest* so the trajectory anchor never drifts).
    let prior: Option<BenchReport> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    let baseline = prior.map(|mut p| match p.baseline.take() {
        Some(oldest) => oldest,
        None => Box::new(p),
    });

    let report = BenchReport {
        schema: 1,
        label,
        calibration_mops: mops,
        single_flow: single,
        fairness_8flow: fair,
        fairness_32flow: fair32,
        multi_hop: multihop,
        workload_2k: workload,
        mini_campaign: campaign,
        eval_latency: Some(LatencyReport {
            single_flow: single_lat,
            fairness_8flow: fair_lat,
            fairness_32flow: fair32_lat,
            multi_hop: multihop_lat,
            workload_2k: workload_lat,
            mini_campaign: campaign_lat,
        }),
        baseline,
    };

    if let Some(b) = &report.baseline {
        let speedup = report.normalized_campaign_rate() / b.normalized_campaign_rate().max(1e-12);
        eprintln!(
            "mini-campaign speedup vs baseline `{}`: {speedup:.2}x (host-normalised)",
            b.label
        );
    }

    // Atomic write (temp + fsync + rename): an interrupted bench run can
    // never leave a truncated BENCH_sim.json behind for `--check` to choke
    // on.
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    ccfuzz_obs::write_atomic(std::path::Path::new(&out_path), json.as_bytes())
        .expect("write report");
    eprintln!("wrote {out_path}");

    if let (Some(path), Some(committed)) = (check_path, committed) {
        let mut failed = false;
        let current_workloads = report.gated_workloads();
        for ((name, reference_workload), (_, current_workload)) in
            committed.gated_workloads().iter().zip(current_workloads)
        {
            // A zeroed anchor is a broken gate, not a pass: it would accept
            // any regression for this workload. Fail loudly so the anchor
            // gets backfilled instead.
            if reference_workload.evals_per_sec <= 0.0 || reference_workload.reps == 0 {
                eprintln!(
                    "FAIL: committed {name} block is zeroed — backfill a real \
                     anchor in {path} before gating against it"
                );
                failed = true;
                continue;
            }
            let current = report.normalized_rate(current_workload);
            let reference = committed.normalized_rate(reference_workload);
            let floor = reference * (1.0 - tolerance);
            eprintln!(
                "regression gate [{name}]: current {current:.4} vs committed \
                 {reference:.4} (floor {floor:.4}, tolerance {tolerance:.0}%)",
                tolerance = tolerance * 100.0
            );
            if current < floor {
                eprintln!("FAIL: {name} evals/sec regressed beyond tolerance");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("OK: all gated workloads within tolerance");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--out` naming the `--check` file, by any spelling, is refused; a
    /// distinct (even not yet existing) output is not.
    #[test]
    fn out_resolving_to_the_checked_report_is_refused() {
        let dir = std::env::temp_dir().join(format!("bench_report_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = dir.join("BENCH_sim.json");
        std::fs::write(&reference, "{}").unwrap();
        let respelled = dir.join(".").join("BENCH_sim.json");
        assert!(refuse_self_check(&reference, &reference).is_err());
        assert!(refuse_self_check(&respelled, &reference).is_err());
        assert!(refuse_self_check(&dir.join("BENCH_sim_current.json"), &reference).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The committed report — whose frozen `baseline` block predates
    /// `workload_2k` and `eval_latency` — parses, the missing blocks read as
    /// zero / `None`, and a write-then-read carries every number forward.
    #[test]
    fn committed_report_parses_and_survives_a_rewrite() {
        let text = include_str!("../../../../BENCH_sim.json");
        let committed: BenchReport = serde_json::from_str(text).unwrap();
        assert!(committed.eval_latency.is_some());
        assert!(committed.workload_2k.reps > 0);
        let baseline = committed.baseline.as_deref().expect("baseline block");
        assert_eq!(baseline.workload_2k.reps, 0);
        assert!(baseline.eval_latency.is_none() && baseline.baseline.is_none());
        assert!(baseline.mini_campaign.evals_per_sec > 0.0);

        let rewritten = serde_json::to_string_pretty(&committed).unwrap();
        assert!(!rewritten.contains("\"eval_latency\": null"));
        let reread: BenchReport = serde_json::from_str(&rewritten).unwrap();
        assert_eq!(
            serde_json::to_string(&reread).unwrap(),
            serde_json::to_string(&committed).unwrap()
        );
    }
}
