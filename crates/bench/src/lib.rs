//! The paper's evaluation as one asserted table.
//!
//! Every figure and finding this repository reproduces is one [`Row`] of
//! [`TABLE`]: where its data comes from (GA campaigns, a crafted trace or a
//! `DIST_PACKETS` sweep), which figures it prints, the shape the paper (or
//! the figure's own description) expects as a predicate, and the [`Mark`]
//! recorded from running it. The `paper` binary prints each row's figures
//! as an ASCII chart plus CSV series, then a verdict line with the numbers
//! the predicate read, and fails when a verdict differs from its mark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ccfuzz_analysis::report::{
    bbr_spurious_stall, cubic_self_inflicted_losses, one_line_summary, reno_repeated_rto,
    rto_timeline, Verdict,
};
use ccfuzz_analysis::table::per_flow_table;
use ccfuzz_analysis::timeseries::{percentile, rate_curve_bps, windowed_throughput_bps};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{
    bbr_stall_trace, cubic_pulse_trace, lowrate_pulse_trace, paper_sim_base, Campaign, FuzzMode,
    PAPER_LINK_RATE_BPS, PAPER_PROP_DELAY_MS,
};
use ccfuzz_core::evaluate::SimEvaluator;
use ccfuzz_core::fuzzer::{GaParams, GenerationSummary};
use ccfuzz_core::genome::{LinkGenome, TrafficGenome};
use ccfuzz_core::mode::{dispatch, GenomePayload, ModeGenome, ModeVisitor};
use ccfuzz_core::realism::RealismScorer;
use ccfuzz_core::scoring::fairness_breakdown;
use ccfuzz_core::trace_gen::{dist_packets, packets_for_rate, DistPacketsParams};
use ccfuzz_netsim::packet::FlowId;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::SimResult;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Scenario length of every campaign and sweep row.
const DURATION: SimDuration = SimDuration::from_secs(5);
/// Width of the windows the rate and throughput curves average over.
const WINDOW: SimDuration = SimDuration::from_millis(250);
/// Width and height of the ASCII charts, in characters.
const CHART: (usize, usize) = (90, 18);
/// Generations of every campaign row at paper scale.
const PAPER_GENERATIONS: u32 = 40;

/// The scale rows run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `GaParams::quick` and the short sweeps: seconds per row.
    Quick,
    /// The paper's §4 settings (population 500, 20 islands). Slow.
    Paper,
}

impl Scale {
    /// The quick- or paper-scale value of a pair.
    fn pick<T>(self, [quick, paper]: [T; 2]) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// A campaign row's GA parameters at GA seed `seed`: `GaParams::quick`
    /// for `generations`, or the paper's for `PAPER_GENERATIONS`.
    fn ga(self, seed: u64, generations: u32) -> GaParams {
        let (base, generations) = match self {
            Scale::Quick => (GaParams::quick(), generations),
            Scale::Paper => (GaParams::paper_default(), PAPER_GENERATIONS),
        };
        GaParams {
            seed,
            generations,
            ..base
        }
    }
}

/// Usage line of the `paper` binary.
pub const USAGE: &str = "usage: paper [--paper-scale] [row]";

/// Parses the `paper` binary's arguments: `--paper-scale` and at most one
/// row name (none: every row). Anything else is an error naming it.
pub fn parse_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(Scale, Vec<&'static Row>), String> {
    let (mut scale, mut rows) = (Scale::Quick, Vec::new());
    for arg in args {
        match TABLE.iter().find(|r| r.name == arg) {
            _ if arg == "--paper-scale" => scale = Scale::Paper,
            Some(row) if rows.is_empty() => rows.push(row),
            Some(_) => return Err(format!("more than one row named (`{arg}`)")),
            None => {
                let names: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
                return Err(format!(
                    "unknown argument `{arg}` (rows: {})",
                    names.join(" ")
                ));
            }
        }
    }
    if rows.is_empty() {
        rows.extend(TABLE.iter());
    }
    Ok((scale, rows))
}

/// Whether a row's expected shape was seen when its mark was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// The predicate holds.
    Reproduced,
    /// The predicate fails; the verdict line prints the numbers that fail it.
    NotReproduced,
}

impl Mark {
    /// The mark a verdict earns.
    pub fn of(verdict: &Verdict) -> Mark {
        match verdict.holds {
            true => Mark::Reproduced,
            false => Mark::NotReproduced,
        }
    }
}

/// Where a row's data comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// One GA campaign per CCA of `ccas`, each built by `campaign` and run
    /// at GA seed `seed` for `generations` (at paper scale for
    /// `PAPER_GENERATIONS`). The first
    /// campaign's best finding is replayed with event recording against
    /// its own CCA, then against each of `replay`.
    Hunt {
        /// Builds a campaign against a CCA at the given GA parameters.
        campaign: fn(CcaKind, GaParams) -> Campaign,
        /// The algorithm under test of each campaign.
        ccas: &'static [CcaKind],
        /// Further algorithms the best finding is replayed against.
        replay: &'static [CcaKind],
        /// GA seed.
        seed: u64,
        /// Generations at quick scale.
        generations: u32,
    },
    /// A crafted trace replayed against each of the algorithms.
    Crafted {
        /// Builds the trace.
        trace: fn() -> TrafficGenome,
        /// The algorithms it is replayed against.
        ccas: &'static [CcaKind],
    },
    /// `DIST_PACKETS` link traces at 12 Mbps and a 50 ms `kAgg`.
    Sweep {
        /// Seed of the generator.
        seed: u64,
        /// How many traces, at quick and at paper scale.
        traces: [usize; 2],
        /// Unbounded MSS-sized traces scored by the multi-CCA realism
        /// scorer (Fig. 5), rather than rate-bounded 1500-byte traces
        /// (Fig. 3).
        realism: bool,
    },
}

/// A series extractor: one printed figure of a row.
#[derive(Clone, Copy, Debug)]
pub enum Figure {
    /// Best score per generation of each campaign, with the legend label of
    /// each campaign's series.
    BestScore(&'static [&'static str]),
    /// Mean packets delivered by the top-k traces per generation of each
    /// campaign, with the legend label of each (Fig. 4d).
    TopDelivered(&'static [&'static str]),
    /// Ingress, egress and cross-traffic rate of the flow and the link's
    /// service rate in the first replay (Fig. 4a/4b).
    Rates,
    /// Per-packet queuing delay of the flow, with its legend label, and of
    /// the cross traffic (Fig. 4e).
    QueuingDelay(&'static str),
    /// Windowed throughput of each flow, then the per-flow goodput table.
    PerFlow,
    /// Queue occupancy of each hop, then the evolved hop chain.
    HopOccupancy,
    /// Cumulative packet curves of a row's traces.
    Curves {
        /// The curves span the first this many milliseconds.
        span_ms: u64,
        /// Points per curve.
        samples: usize,
        /// At most this many curves.
        max_traces: usize,
        /// Only traces with this realism verdict (`None`: any).
        accepted: Option<bool>,
    },
    /// The events after each RTO of the first replay.
    RtoTimeline {
        /// Milliseconds after each RTO shown.
        after_ms: u64,
        /// At most this many events per RTO.
        max_events: usize,
    },
}

/// One figure or finding of the paper's evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Name, as given to the `paper` binary.
    pub name: &'static str,
    /// Where in the paper it comes from.
    pub reference: &'static str,
    /// Where its data comes from.
    pub source: Source,
    /// Its figures, each with a heading.
    pub figures: &'static [(Figure, &'static str)],
    /// The expected shape.
    pub claim: &'static str,
    /// Reads the expected shape off the evidence.
    pub predicate: fn(&Evidence) -> Verdict,
    /// The verdict recorded at quick scale.
    pub mark: Mark,
}

/// One generated trace of a sweep (or a link finding's service curve).
#[derive(Clone, Debug)]
pub(crate) struct SweepTrace {
    /// Legend label.
    label: String,
    /// Service opportunities, sorted.
    timestamps: Vec<SimTime>,
    /// The realism verdict, when the sweep scores it.
    accepted: Option<bool>,
}

/// Everything a row's figures and predicate read.
#[derive(Clone, Debug)]
pub struct Evidence {
    /// Length of the replayed scenario.
    duration: SimDuration,
    /// Packet size of the replays.
    mss: u32,
    /// Per-generation history of each campaign, labelled by its CCA.
    pub histories: Vec<(String, Vec<GenerationSummary>)>,
    /// The first campaign's best finding.
    best: Option<GenomePayload>,
    /// Recorded replays, labelled by CCA.
    pub runs: Vec<(String, SimResult)>,
    /// A sweep's traces, or a link finding's service curve.
    traces: Vec<SweepTrace>,
}

impl Evidence {
    fn new(duration: SimDuration) -> Evidence {
        Evidence {
            duration,
            mss: paper_sim_base(duration).mss,
            histories: Vec::new(),
            best: None,
            runs: Vec::new(),
            traces: Vec::new(),
        }
    }

    fn run(&self) -> &SimResult {
        &self.runs[0].1
    }

    /// Replays `genome` against `evaluator`, recording the run log.
    fn replay<G: ModeGenome>(&mut self, cca: CcaKind, evaluator: &SimEvaluator, genome: &G) {
        let run = evaluator.simulate_once(genome, true);
        self.runs.push((cca.name().to_string(), run));
    }
}

/// A named series of `(x, y)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureSeries {
    /// Legend label.
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

fn series(name: impl Into<String>, points: impl Iterator<Item = (f64, f64)>) -> FigureSeries {
    let (name, points) = (name.into(), points.collect());
    FigureSeries { name, points }
}

fn mbps(name: impl Into<String>, rates: Vec<(SimTime, f64)>) -> FigureSeries {
    series(
        name,
        rates
            .into_iter()
            .map(|(t, bps)| (t.as_secs_f64(), bps / 1e6)),
    )
}

/// Cumulative packet count at `samples` evenly spaced instants over
/// `span` (x in milliseconds, as in Figures 3 and 5).
fn cumulative(name: &str, sorted: &[SimTime], samples: usize, span: SimDuration) -> FigureSeries {
    let at = |s: usize| span.as_nanos() * s as u64 / (samples as u64 - 1);
    let count = |t_ns: u64| sorted.partition_point(|t| t.as_nanos() <= t_ns) as f64;
    series(
        name,
        (0..samples).map(|s| (at(s) as f64 / 1e6, count(at(s)))),
    )
}

fn occupancy(name: String, samples: &[(SimTime, usize, u64)]) -> FigureSeries {
    series(
        name,
        samples
            .iter()
            .map(|(t, len, _)| (t.as_secs_f64(), *len as f64)),
    )
}

/// Cumulative bytes the link can serve in the first replay: `(i + 1)`
/// MSS at the i-th opportunity of a link finding, else the paper's
/// constant rate at every [`WINDOW`].
fn capacity(ev: &Evidence) -> Vec<(SimTime, u64)> {
    match &ev.best {
        Some(GenomePayload::Link(g)) => (1..)
            .zip(g.timestamps())
            .map(|(i, t)| (t, i * ev.mss as u64))
            .collect(),
        _ => (0..=ev.duration.as_nanos() / WINDOW.as_nanos())
            .map(|i| SimTime::from_nanos(i * WINDOW.as_nanos()))
            .map(|t| {
                (
                    t,
                    (PAPER_LINK_RATE_BPS as f64 / 8.0 * t.as_secs_f64()) as u64,
                )
            })
            .collect(),
    }
}

impl Figure {
    /// Extracts this figure from `ev`: its chart series (none for a
    /// timeline) and the text printed after them.
    pub fn extract(&self, ev: &Evidence) -> (Vec<FigureSeries>, String) {
        match *self {
            Figure::BestScore(labels) | Figure::TopDelivered(labels) => {
                let y = |h: &GenerationSummary| match self {
                    Figure::TopDelivered(_) => h.top_k_mean_delivered,
                    _ => h.best_score,
                };
                let curves = labels
                    .iter()
                    .zip(&ev.histories)
                    .map(|(label, (_, history))| {
                        series(*label, history.iter().map(|h| (h.generation as f64, y(h))))
                    });
                (curves.collect(), String::new())
            }
            Figure::Rates => {
                let stats = &ev.run().stats;
                let curve = |c: &[(SimTime, u64)]| rate_curve_bps(c, WINDOW, ev.duration);
                let mut rates = vec![
                    mbps("Ingress", curve(&stats.ingress_bytes(FlowId::Cca(0)))),
                    mbps("Egress", curve(&stats.egress_bytes(FlowId::Cca(0)))),
                    mbps("Traffic", curve(&stats.ingress_bytes(FlowId::CrossTraffic))),
                    mbps("Link Rate", curve(&capacity(ev))),
                ];
                if let Some(GenomePayload::Link(_)) = ev.best {
                    rates.remove(2);
                }
                (rates, String::new())
            }
            Figure::QueuingDelay(label) => {
                let flows = [
                    (FlowId::Cca(0), label),
                    (FlowId::CrossTraffic, "Cross Traffic"),
                ];
                let delays = flows.into_iter().map(|(flow, name)| {
                    let delays = ev.run().stats.queuing_delays(flow).into_iter();
                    series(
                        name,
                        delays.map(|(t, d)| (t.as_secs_f64(), d.as_secs_f64() * 1e3)),
                    )
                });
                (delays.collect(), String::new())
            }
            Figure::PerFlow => {
                let run = ev.run();
                let (ccas, paths): (Vec<String>, Vec<String>) = (0..run.stats.flows.len())
                    .map(|i| match &ev.best {
                        Some(GenomePayload::Scenario(g)) => (g.flows[i].cca.name(), String::new()),
                        Some(GenomePayload::Topology(g)) => {
                            let (f, p) = (&g.flows[i].flow, &g.flows[i].path);
                            (f.cca.name(), format!(", hops {}..={}", p.entry, p.exit))
                        }
                        _ => (ev.runs[0].0.as_str(), String::new()),
                    })
                    .map(|(cca, path)| (cca.to_string(), path))
                    .unzip();
                let flows = run.stats.flows.iter().enumerate().map(|(i, f)| {
                    let rates =
                        windowed_throughput_bps(&f.delivery_times, ev.mss, WINDOW, ev.duration);
                    mbps(format!("flow {i} ({}{})", ccas[i], paths[i]), rates)
                });
                let b = fairness_breakdown(run, ev.mss);
                let mut text =
                    per_flow_table(&ccas, &b.per_flow_goodput_bps, &b.per_flow_delivered);
                let (jain, starved) = (b.jain_index, b.max_starvation_secs);
                let _ = writeln!(text, "jain index {jain:.4}, max starvation {starved:.3} s");
                (flows.collect(), text)
            }
            Figure::HopOccupancy => {
                let stats = &ev.run().stats;
                let hops = (stats.hop_samples.iter().enumerate())
                    .map(|(k, samples)| occupancy(format!("hop {k} (packets)"), samples))
                    .collect();
                let chain = match &ev.best {
                    Some(GenomePayload::Topology(g)) => g.detail_table(),
                    _ => String::new(),
                };
                (hops, chain)
            }
            Figure::Curves {
                span_ms,
                samples,
                max_traces,
                accepted,
            } => {
                let span = SimDuration::from_millis(span_ms);
                let shown = ev
                    .traces
                    .iter()
                    .filter(|t| accepted.is_none() || t.accepted == accepted);
                let curves = shown
                    .take(max_traces)
                    .map(|t| cumulative(&t.label, &t.timestamps, samples, span));
                (curves.collect(), String::new())
            }
            Figure::RtoTimeline {
                after_ms,
                max_events,
            } => {
                let after = SimDuration::from_millis(after_ms);
                (Vec::new(), rto_timeline(&ev.run().stats, after, max_events))
            }
        }
    }
}

/// Runs a row's campaigns over the genome type of their mode.
struct Hunt {
    campaigns: Vec<Campaign>,
    replay: &'static [CcaKind],
}

impl ModeVisitor for Hunt {
    type Out = Evidence;

    fn visit<G: ModeGenome>(self) -> Evidence {
        let mut ev = Evidence::new(DURATION);
        let mut best = None;
        for campaign in &self.campaigns {
            eprintln!(
                "fuzzing {} in {} mode...",
                campaign.cca.name(),
                campaign.mode.name()
            );
            let result = campaign.run::<G>(None);
            ev.histories
                .push((campaign.cca.name().to_string(), result.history));
            best.get_or_insert(result.best_genome);
        }
        let best = best.expect("a hunt row runs a campaign");
        let first = &self.campaigns[0];
        ev.replay(first.cca, &first.evaluator(), &best);
        for &cca in self.replay {
            let mut genome = best.clone();
            genome.set_primary_cca(cca);
            let evaluator = Campaign {
                cca,
                ..first.clone()
            }
            .evaluator();
            ev.replay(cca, &evaluator, &genome);
        }
        let best = best.wrap();
        if let GenomePayload::Link(g) = &best {
            ev.traces.push(SweepTrace {
                label: "Packet Count".into(),
                timestamps: g.timestamps(),
                accepted: None,
            });
        }
        ev.best = Some(best);
        ev
    }
}

impl Row {
    /// Runs the row at `scale`. A GA row runs at `ga` when given (the seed
    /// still the row's), else at `scale`'s parameters.
    pub fn collect(&self, scale: Scale, ga: Option<GaParams>) -> Evidence {
        match self.source {
            Source::Hunt {
                campaign,
                ccas,
                replay,
                seed,
                generations,
            } => {
                let ga = match ga {
                    Some(ga) => GaParams { seed, ..ga },
                    None => scale.ga(seed, generations),
                };
                let campaigns: Vec<Campaign> = ccas.iter().map(|&cca| campaign(cca, ga)).collect();
                dispatch(campaigns[0].mode, Hunt { campaigns, replay })
            }
            Source::Crafted { trace, ccas } => {
                let genome = trace();
                let mut ev = Evidence::new(genome.duration);
                for &cca in ccas {
                    let campaign = Campaign::paper_standard(
                        FuzzMode::Traffic,
                        cca,
                        genome.duration,
                        GaParams::quick(),
                    );
                    ev.replay(cca, &campaign.evaluator(), &genome);
                }
                ev
            }
            Source::Sweep {
                seed,
                traces,
                realism,
            } => {
                let mut ev = Evidence::new(DURATION);
                let size = if realism { ev.mss } else { 1500 };
                let total = packets_for_rate(PAPER_LINK_RATE_BPS, size, DURATION);
                let params = DistPacketsParams {
                    enforce_rate_bounds: !realism,
                    ..Default::default()
                };
                let scorer = realism.then(|| RealismScorer::standard(paper_sim_base(DURATION)));
                let mut rng = SimRng::new(seed);
                for i in 0..scale.pick(traces) {
                    let end = SimTime::ZERO + DURATION;
                    let timestamps = dist_packets(total, SimTime::ZERO, end, &params, &mut rng);
                    let (mut label, mut accepted) = (format!("trace {i}"), None);
                    if let Some(scorer) = &scorer {
                        let genome = LinkGenome::new(&timestamps, DURATION, params.k_agg);
                        let outcome = scorer.score_link(&genome);
                        label = format!("trace {i} ({:.2})", outcome.score);
                        accepted = Some(outcome.accepted);
                    }
                    ev.traces.push(SweepTrace {
                        label,
                        timestamps,
                        accepted,
                    });
                }
                ev
            }
        }
    }

    /// Prints the row's figures as ASCII charts plus CSV series, a summary
    /// line per replay, and returns the verdict.
    pub fn report(&self, ev: &Evidence) -> Verdict {
        for (figure, heading) in self.figures {
            let (series, text) = figure.extract(ev);
            let rule = "#".repeat(64);
            println!("\n{rule}\n# {heading}\n{rule}");
            if !series.is_empty() {
                println!("{}", ascii_chart(heading, &series));
                println!("--- CSV ---\n{}", to_csv(&series));
            }
            print!("{text}");
        }
        println!();
        for (label, run) in &ev.runs {
            let secs = ev.duration.as_secs_f64();
            println!("{label}: {}", one_line_summary(&run.stats, secs, ev.mss));
        }
        (self.predicate)(ev)
    }
}

/// Renders series as a [`CHART`]-sized ASCII chart, one glyph per series,
/// with the data range on the axes.
fn ascii_chart(title: &str, series: &[FigureSeries]) -> String {
    let (width, height) = CHART;
    let glyphs = ['*', '+', 'o', 'x', '#', '@'];
    let points = || series.iter().flat_map(|s| s.points.iter().copied());
    let min_x = points().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let max_x = points().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let min_y = points().map(|p| p.1).fold(0.0, f64::min);
    let max_y = points().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let mut out = format!("== {title} ==\n");
    if !min_x.is_finite() || !max_x.is_finite() || max_y <= min_y {
        out.push_str("(no data)\n");
        return out;
    }
    let x_span = (max_x - min_x).max(1e-12);
    let y_span = (max_y - min_y).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        for &(x, y) in &s.points {
            let col = (((x - min_x) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y - min_y) / y_span) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row.min(height - 1)][col.min(width - 1)] = glyphs[si % glyphs.len()];
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let y_label = max_y - (i as f64 / (height - 1) as f64) * y_span;
        let _ = writeln!(out, "{y_label:>10.2} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>10} +{}", "", "-".repeat(width));
    let gap = " ".repeat(width.saturating_sub(12));
    let _ = writeln!(out, "{:>10}  {min_x:<.2}{gap}{max_x:>.2}", "");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "   [{}] {}", glyphs[si % glyphs.len()], s.name);
    }
    out
}

/// Serialises series as CSV: a header row (`x,<name1>,<name2>,...`), then
/// one row per point index, x taken from the first series that has it.
fn to_csv(series: &[FigureSeries]) -> String {
    let names = series
        .iter()
        .map(|s| format!(",{}", s.name.replace(',', ";")));
    let mut out = format!("x{}\n", names.collect::<String>());
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series.iter().find_map(|s| s.points.get(i).map(|p| p.0));
        let _ = write!(out, "{}", x.unwrap_or(i as f64));
        for s in series {
            let y = s.points.get(i).map(|p| p.1.to_string());
            let _ = write!(out, ",{}", y.unwrap_or_default());
        }
        out.push('\n');
    }
    out
}

fn bbr_stall(ev: &Evidence) -> Verdict {
    bbr_spurious_stall(&ev.run().stats)
}

fn cubic_losses(ev: &Evidence) -> Verdict {
    cubic_self_inflicted_losses(&ev.runs[0].1.stats, &ev.runs[1].1.stats)
}

fn repeated_rto(ev: &Evidence) -> Verdict {
    reno_repeated_rto(&ev.run().stats, ev.mss, ev.duration)
}

/// Share of a sweep trace's packets in the first half of the scenario.
fn first_half_share(trace: &SweepTrace) -> f64 {
    let half = SimTime::from_nanos(DURATION.as_nanos() / 2);
    let early = trace.timestamps.partition_point(|&t| t < half);
    early as f64 / trace.timestamps.len().max(1) as f64
}

fn halves_within_thirds(ev: &Evidence) -> Verdict {
    let shares = ev.traces.iter().map(first_half_share);
    let min = shares.clone().fold(f64::INFINITY, f64::min);
    let max = shares.fold(0.0, f64::max);
    Verdict {
        holds: min >= 1.0 / 3.0 && max <= 2.0 / 3.0,
        numbers: format!(
            "share of packets in the first half across {} traces: min {min:.3}, max {max:.3} \
             (need all within [0.333, 0.667])",
            ev.traces.len()
        ),
    }
}

fn late_starters_rejected(ev: &Evidence) -> Verdict {
    let mean_share = |accepted: bool| {
        let traces = ev.traces.iter().filter(|t| t.accepted == Some(accepted));
        let shares: Vec<f64> = traces.map(first_half_share).collect();
        (
            shares.len(),
            shares.iter().sum::<f64>() / shares.len().max(1) as f64,
        )
    };
    let ((n_acc, acc), (n_rej, rej)) = (mean_share(true), mean_share(false));
    Verdict {
        holds: n_acc > 0 && n_rej > 0 && rej < acc,
        numbers: format!(
            "{n_acc} accepted, {n_rej} rejected (need both > 0); mean share of packets in the \
             first half: accepted {acc:.3}, rejected {rej:.3} (need rejected < accepted)"
        ),
    }
}

fn patch_delivers_more(ev: &Evidence) -> Verdict {
    let last = |i: usize| {
        let (label, history) = &ev.histories[i];
        (
            label,
            history.last().map_or(0.0, |h| h.top_k_mean_delivered),
        )
    };
    let ((default, d), (patched, p)) = (last(0), last(1));
    Verdict {
        holds: p > d,
        numbers: format!(
            "final top-k mean delivered packets: {default} {d:.0}, {patched} {p:.0} \
             (need {patched} > {default})"
        ),
    }
}

fn standing_queue(ev: &Evidence) -> Verdict {
    let delays = ev.run().stats.queuing_delays(FlowId::Cca(0));
    let ms: Vec<f64> = delays.iter().map(|(_, d)| d.as_secs_f64() * 1e3).collect();
    let [p10, p50, p90] = [10.0, 50.0, 90.0].map(|p| percentile(&ms, p));
    let base_rtt = 2 * PAPER_PROP_DELAY_MS;
    Verdict {
        holds: p50 >= base_rtt as f64,
        numbers: format!(
            "flow queuing delay p10 {p10:.1} ms, p50 {p50:.1} ms, p90 {p90:.1} ms \
             (need p50 >= the {base_rtt} ms base RTT)"
        ),
    }
}

fn ga_improves(ev: &Evidence) -> Verdict {
    let history = &ev.histories[0].1;
    let first = history.first().map_or(0.0, |h| h.best_score);
    let last = history.last().map_or(0.0, |h| h.best_score);
    Verdict {
        holds: last > first,
        numbers: format!(
            "best score: generation 0 {first:.6}, final {last:.6} (need final > generation 0)"
        ),
    }
}

/// The paper's standard low-throughput traffic-mode campaign.
fn traffic(cca: CcaKind, ga: GaParams) -> Campaign {
    Campaign::paper_standard(FuzzMode::Traffic, cca, DURATION, ga)
}

/// The standard link-mode campaign with trace annealing (§3.2).
fn annealed_link(cca: CcaKind, ga: GaParams) -> Campaign {
    Campaign::paper_standard(
        FuzzMode::Link,
        cca,
        DURATION,
        GaParams { anneal: true, ..ga },
    )
}

/// Traffic mode with the p10 queuing-delay objective (§4.3).
fn high_delay(cca: CcaKind, ga: GaParams) -> Campaign {
    Campaign::paper_high_delay(FuzzMode::Traffic, cca, DURATION, ga)
}

/// `cca` sharing the bottleneck with Reno, unfairness objective.
fn against_reno(cca: CcaKind, ga: GaParams) -> Campaign {
    Campaign::paper_fairness(vec![cca, Reno], DURATION, ga)
}

/// `cca` over an evolved three-hop parking lot.
fn three_hops(cca: CcaKind, ga: GaParams) -> Campaign {
    Campaign::paper_topology(cca, 3, DURATION, ga)
}

use CcaKind::{Bbr, BbrProbeRttOnRto, Cubic, CubicNs3Buggy, Reno};

/// The paper's evaluation, in the order of EXPERIMENTS.md's figure table.
pub const TABLE: &[Row] = &[
    Row {
        name: "fig3",
        reference: "§3.2, Figure 3",
        source: Source::Sweep { seed: 3, traces: [30, 30], realism: false },
        figures: &[
            (
                Figure::Curves { span_ms: 5_000, samples: 100, max_traces: 8, accepted: None },
                "Figure 3a: DIST_PACKETS service curves, 12 Mbps average, 5 second interval (packet count vs ms)",
            ),
            (
                Figure::Curves { span_ms: 50, samples: 50, max_traces: 8, accepted: None },
                "Figure 3b: DIST_PACKETS service curves, 50 millisecond interval (packet count vs ms)",
            ),
        ],
        claim: "the 0.5x-2x local rate bounds keep each trace's first half within [1/3, 2/3] of its packets",
        predicate: halves_within_thirds,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "fig4a",
        reference: "§4.1, Figure 4a",
        source: Source::Hunt { campaign: traffic, ccas: &[Bbr], replay: &[], seed: 7, generations: 18 },
        figures: &[
            (Figure::Rates, "Figure 4a: CC-Fuzz traffic trace that causes BBR to get stuck (Mbps vs seconds)"),
            (Figure::RtoTimeline { after_ms: 400, max_events: 60 }, "Timeline around each RTO of the best trace (default BBR)"),
        ],
        claim: "the evolved cross traffic shows the §4.1 signature: spurious retransmissions break BBR's probe rounds",
        predicate: bbr_stall,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "fig4b",
        reference: "§4.1, Figure 4b",
        source: Source::Hunt { campaign: annealed_link, ccas: &[Bbr], replay: &[], seed: 13, generations: 18 },
        figures: &[
            (Figure::Rates, "Figure 4b: CC-Fuzz link trace that causes BBR to get stuck (Mbps vs seconds)"),
            (Figure::Curves { span_ms: 5_000, samples: 80, max_traces: 1, accepted: None }, "Adversarial service curve (cumulative packets vs ms)"),
        ],
        claim: "the evolved service curve shows the §4.1 signature",
        predicate: bbr_stall,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "fig4c",
        reference: "§4.1, Figure 4c",
        source: Source::Crafted { trace: bbr_stall_trace, ccas: &[Bbr, BbrProbeRttOnRto] },
        figures: &[(
            Figure::RtoTimeline { after_ms: 500, max_events: 120 },
            "Figure 4c: transport + BBR timeline around each RTO (default BBR, crafted trace)",
        )],
        claim: "the crafted two-pulse trace shows the §4.1 signature",
        predicate: bbr_stall,
        mark: Mark::Reproduced,
    },
    Row {
        name: "fig4d",
        reference: "§4.1, Figure 4d",
        source: Source::Hunt { campaign: traffic, ccas: &[Bbr, BbrProbeRttOnRto], replay: &[], seed: 7, generations: 18 },
        figures: &[(
            Figure::TopDelivered(&["Default BBR", "BBR (ProbeRTT on RTO)"]),
            "Figure 4d: packets delivered by the worst traces per generation, default BBR vs patched BBR",
        )],
        claim: "the worst traces found for BBR with ProbeRTT-on-RTO still deliver more than those for default BBR",
        predicate: patch_delivers_more,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "fig4e",
        reference: "§4.3, Figure 4e",
        source: Source::Hunt { campaign: high_delay, ccas: &[Bbr], replay: &[], seed: 31, generations: 18 },
        figures: &[(
            Figure::QueuingDelay("BBR Flow"),
            "Figure 4e: queuing delay (ms) over time for the BBR flow and the cross traffic",
        )],
        claim: "the evolved cross traffic keeps a standing queue: BBR's median queuing delay is at least one base RTT",
        predicate: standing_queue,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "fig5",
        reference: "§5, Figure 5",
        source: Source::Sweep { seed: 17, traces: [12, 40], realism: true },
        figures: &[
            (
                Figure::Curves { span_ms: 5_000, samples: 80, max_traces: usize::MAX, accepted: Some(true) },
                "Figure 5a: traces ACCEPTED by realism scoring (cumulative packets vs ms)",
            ),
            (
                Figure::Curves { span_ms: 5_000, samples: 80, max_traces: usize::MAX, accepted: Some(false) },
                "Figure 5b: traces REJECTED by realism scoring (cumulative packets vs ms)",
            ),
        ],
        claim: "realism scoring rejects traces that start with little capacity and accepts spread-out ones",
        predicate: late_starters_rejected,
        mark: Mark::Reproduced,
    },
    Row {
        name: "cubic",
        reference: "§4.2",
        source: Source::Hunt { campaign: traffic, ccas: &[CubicNs3Buggy], replay: &[Cubic], seed: 23, generations: 18 },
        figures: &[(Figure::Rates, "§4.2: the best trace against the ns-3 CUBIC (Mbps vs seconds)")],
        claim: "on the evolved trace the ns-3 CUBIC shows the §4.2 signature against the capped CUBIC",
        predicate: cubic_losses,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "cubic_pulse",
        reference: "§4.2",
        source: Source::Crafted { trace: cubic_pulse_trace, ccas: &[CubicNs3Buggy, Cubic] },
        figures: &[(
            Figure::RtoTimeline { after_ms: 400, max_events: 40 },
            "§4.2: timeline around each RTO of the ns-3 CUBIC (crafted 400 ms pulse)",
        )],
        claim: "the crafted pulse shows the §4.2 signature",
        predicate: cubic_losses,
        mark: Mark::Reproduced,
    },
    Row {
        name: "lowrate",
        reference: "§4.3",
        source: Source::Hunt { campaign: traffic, ccas: &[Reno], replay: &[], seed: 11, generations: 15 },
        figures: &[
            (Figure::Rates, "§4.3: the best trace against Reno (Mbps vs seconds)"),
            (Figure::RtoTimeline { after_ms: 400, max_events: 40 }, "§4.3: timeline around each RTO of Reno on the best trace"),
        ],
        claim: "the evolved trace rediscovers the low-rate attack: the §4.3 signature of repeated RTOs",
        predicate: repeated_rto,
        mark: Mark::NotReproduced,
    },
    Row {
        name: "lowrate_pulse",
        reference: "§4.3",
        source: Source::Crafted { trace: lowrate_pulse_trace, ccas: &[Reno] },
        figures: &[(
            Figure::RtoTimeline { after_ms: 400, max_events: 40 },
            "§4.3: timeline around each RTO of Reno (crafted four-pulse low-rate attack)",
        )],
        claim: "the crafted low-rate attack shows the §4.3 signature",
        predicate: repeated_rto,
        mark: Mark::Reproduced,
    },
    Row {
        name: "fairness",
        reference: "extension: fairness fuzzing",
        source: Source::Hunt { campaign: against_reno, ccas: &[Bbr], replay: &[], seed: 21, generations: 8 },
        figures: &[
            (Figure::BestScore(&["best unfairness score"]), "Fairness fuzzing: best score per generation (BBR vs. Reno, 12 Mbps / 20 ms)"),
            (Figure::PerFlow, "Worst scenario found: per-flow throughput (Mbps vs seconds)"),
        ],
        claim: "the GA finds a more unfair scenario than its initial population holds",
        predicate: ga_improves,
        mark: Mark::Reproduced,
    },
    Row {
        name: "parking_lot",
        reference: "extension: topology fuzzing",
        source: Source::Hunt { campaign: three_hops, ccas: &[Reno], replay: &[], seed: 31, generations: 8 },
        figures: &[
            (Figure::BestScore(&["best multi-bottleneck score"]), "Topology fuzzing: best score per generation (Reno over an evolved hop chain)"),
            (Figure::PerFlow, "Worst topology found: per-flow throughput (Mbps vs seconds)"),
            (Figure::HopOccupancy, "Worst topology found: per-hop queue occupancy (packets vs seconds)"),
        ],
        claim: "the GA finds a more damaging hop chain than its initial population holds",
        predicate: ga_improves,
        mark: Mark::Reproduced,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::stats::{BottleneckEvent, LogEvent, LogRecord, RunStats};

    fn parse(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        let parsed = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok((parsed.0, parsed.1.iter().map(|r| r.name).collect()))
    }

    #[test]
    fn arguments_select_the_scale_and_at_most_one_row() {
        let all: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
        assert_eq!(parse(&[]), Ok((Scale::Quick, all.clone())));
        assert_eq!(parse(&["--paper-scale"]), Ok((Scale::Paper, all)));
        assert_eq!(parse(&["fig4d"]), Ok((Scale::Quick, vec!["fig4d"])));
        assert_eq!(
            parse(&["fig3", "--paper-scale"]),
            Ok((Scale::Paper, vec!["fig3"]))
        );
        for bad in [
            &["--paper_scale"][..],
            &["fig9"],
            &["fig3", "fig4a"],
            &["-h"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert!(parse(&["--paper_scale"])
            .unwrap_err()
            .contains("`--paper_scale`"));
    }

    #[test]
    fn row_names_are_unique() {
        for (i, row) in TABLE.iter().enumerate() {
            assert!(
                TABLE[..i].iter().all(|r| r.name != row.name),
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn campaign_rows_keep_their_seed_and_paper_scale_is_the_papers() {
        let quick = Scale::Quick.ga(3, 10);
        assert_eq!((quick.seed, quick.generations), (3, 10));
        let paper = Scale::Paper.ga(3, 10);
        assert_eq!((paper.seed, paper.generations), (3, PAPER_GENERATIONS));
        assert_eq!(paper.total_population(), 500);
    }

    #[test]
    fn campaign_figures_label_every_campaign() {
        for row in TABLE {
            let Source::Hunt { ccas, .. } = row.source else {
                continue;
            };
            for (figure, _) in row.figures {
                if let Figure::BestScore(labels) | Figure::TopDelivered(labels) = figure {
                    assert_eq!(labels.len(), ccas.len(), "{}", row.name);
                }
            }
        }
    }

    fn record(at_ms: u64, flow: FlowId, event: BottleneckEvent) -> LogRecord {
        LogRecord {
            at: SimTime::from_millis(at_ms),
            flow,
            hop: 0,
            event: LogEvent::Queue { size: 1_000, event },
        }
    }

    fn dequeued(delay_ms: u64) -> BottleneckEvent {
        BottleneckEvent::Dequeued {
            queuing_delay: SimDuration::from_millis(delay_ms),
        }
    }

    /// Evidence of one replay with these gateway records.
    fn evidence(log: Vec<LogRecord>) -> Evidence {
        let mut ev = Evidence::new(SimDuration::from_secs(1));
        let stats = RunStats {
            log,
            ..Default::default()
        };
        let run = SimResult {
            stats,
            duration_secs: 1.0,
        };
        ev.runs.push(("bbr".into(), run));
        ev
    }

    #[test]
    fn rates_extract_the_flow_the_traffic_and_the_link() {
        let ev = evidence(vec![
            record(100, FlowId::Cca(0), BottleneckEvent::Enqueued),
            record(200, FlowId::Cca(0), dequeued(100)),
            record(200, FlowId::CrossTraffic, BottleneckEvent::Enqueued),
        ]);
        let (rates, text) = Figure::Rates.extract(&ev);
        let names: Vec<&str> = rates.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Ingress", "Egress", "Traffic", "Link Rate"]);
        assert!(text.is_empty());
        let windows = (ev.duration.as_nanos() / WINDOW.as_nanos()) as usize;
        for s in &rates {
            assert_eq!(s.points.len(), windows, "{}", s.name);
        }
        for s in &rates[..3] {
            assert!(s.points[0].1 > 0.0, "{}", s.name);
        }
        // The paper's 12 Mbps link serves 12 Mbit/s in every window; each
        // window's bytes are stepped in at its end, so they count in the next.
        assert!(rates[3].points[1..]
            .iter()
            .all(|p| (p.1 - 12.0).abs() < 0.5));
    }

    #[test]
    fn a_link_finding_serves_one_mss_per_opportunity_and_has_no_traffic() {
        let mut ev = evidence(vec![record(100, FlowId::Cca(0), BottleneckEvent::Enqueued)]);
        let opportunities = vec![SimTime::from_millis(1), SimTime::from_millis(2)];
        ev.best = Some(GenomePayload::Link(LinkGenome::new(
            &opportunities,
            ev.duration,
            SimDuration::from_millis(50),
        )));
        let mss = ev.mss as u64;
        assert_eq!(
            capacity(&ev),
            vec![(opportunities[0], mss), (opportunities[1], 2 * mss)]
        );
        let (rates, _) = Figure::Rates.extract(&ev);
        let names: Vec<&str> = rates.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Ingress", "Egress", "Link Rate"]);
    }

    #[test]
    fn queuing_delay_splits_the_flow_from_the_cross_traffic() {
        let ev = evidence(vec![
            record(100, FlowId::Cca(0), dequeued(30)),
            record(150, FlowId::Cca(0), BottleneckEvent::Enqueued),
            record(200, FlowId::CrossTraffic, dequeued(5)),
        ]);
        let (delays, _) = Figure::QueuingDelay("BBR Flow").extract(&ev);
        assert_eq!(
            delays,
            vec![
                series("BBR Flow", [(0.1, 30.0)].into_iter()),
                series("Cross Traffic", [(0.2, 5.0)].into_iter()),
            ]
        );
    }

    #[test]
    fn ascii_chart_draws_each_series_with_its_glyph_and_legend() {
        let a = series(
            "throughput",
            [(0.0, 0.0), (1.0, 5.0), (2.0, 10.0)].into_iter(),
        );
        let b = series("delay", [(0.0, 2.0), (1.0, 2.0), (2.0, 3.0)].into_iter());
        let chart = ascii_chart("Figure X", &[a, b]);
        assert!(chart.starts_with("== Figure X ==\n"));
        assert!(chart.contains("[*] throughput") && chart.contains("[+] delay"));
        assert_eq!(chart.lines().count(), 1 + CHART.1 + 2 + 2);
        let empty = series("empty", [].into_iter());
        assert!(ascii_chart("Nothing", &[empty]).contains("(no data)"));
    }

    #[test]
    fn csv_has_a_header_and_pads_uneven_series() {
        let a = series("a,1", [(0.0, 1.0)].into_iter());
        let b = series("b", [(0.0, 3.0), (1.0, 4.0)].into_iter());
        assert_eq!(to_csv(&[a, b]), "x,a;1,b\n0,1,3\n1,,4\n");
    }

    #[test]
    fn cumulative_curve_counts_packets_up_to_each_sample() {
        let ts: Vec<SimTime> = (0..100).map(|i| SimTime::from_millis(i * 10)).collect();
        let curve = cumulative("c", &ts, 20, SimDuration::from_secs(1));
        assert_eq!(curve.points.len(), 20);
        assert!(curve.points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(curve.points[0], (0.0, 1.0));
        assert_eq!(curve.points[19], (1000.0, 100.0));
    }
}
