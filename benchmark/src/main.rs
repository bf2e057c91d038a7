//! `ccfuzz-benchmark` — the repo's benchmark harness (launched by
//! `benchmark/run.sh`, which builds everything first).
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1    one contract run
//! run.sh [--seed N] [--seconds S]                         the full ledger
//! run.sh --agree [--seed N]                               two sets, compared
//! run.sh --quick                                          every path, in seconds
//! ```
//!
//! End-to-end numbers come from the real binaries, timed from the outside
//! with tracing off; per-layer numbers come from a separate traced run that
//! re-drives the same campaign in-process. Closed loop throughout: one
//! campaign at a time, a generation barrier inside it.

mod e2e;
mod metrics;
mod modes;
mod proc;
mod report;
mod span;
mod stats;
mod traced;
mod workload;

use e2e::{fnv1a, replay_fixtures, run_session, Env, Gates, HuntPlan, Session};
use metrics::result_line;
use modes::{FairnessMode, LinkMode, TrafficMode, WorkloadMode};
use report::{Fingerprints, RunRecord};
use stats::median;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use traced::{traced_run, ProbeSizes, Reference, Traced};
use workload::{eval_threads, sub_seed, CampaignShape, Size, Workload, WORKLOADS};

/// `--seconds` of the full ledger and `--agree` when not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Sets per workload in the full ledger and in each half of `--agree`.
const REPEATS: usize = 3;

/// Command-line arguments, all optional but the directories `run.sh` passes.
struct Args {
    repo: PathBuf,
    bin_dir: PathBuf,
    scratch: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    agree: bool,
    corrupt: bool,
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repo: PathBuf::new(),
        bin_dir: PathBuf::new(),
        scratch: PathBuf::new(),
        out: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        agree: false,
        corrupt: false,
        spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: invalid value `{v}`"))
        };
        match flag.as_str() {
            "--repo" => args.repo = value()?.into(),
            "--bin-dir" => args.bin_dir = value()?.into(),
            "--scratch" => args.scratch = value()?.into(),
            "--out" => args.out = value()?.into(),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.quick = true,
            "--agree" => args.agree = true,
            "--corrupt" => args.corrupt = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for (name, path) in [
        ("--repo", &args.repo),
        ("--bin-dir", &args.bin_dir),
        ("--scratch", &args.scratch),
        ("--out", &args.out),
    ] {
        if path.as_os_str().is_empty() {
            return Err(format!(
                "{name} is required (run this through benchmark/run.sh)"
            ));
        }
    }
    Ok(args)
}

/// How many sessions a run makes.
#[derive(Clone, Copy)]
enum Sessions {
    /// As many as `--seconds` buys for the workload.
    For { seconds: u64 },
    /// The single untraced reference session of a traced run.
    One,
}

/// The shape of one run of one workload.
#[derive(Clone, Copy)]
struct RunShape {
    size: Size,
    sessions: Sessions,
    trace: Option<ProbeSizes>,
    corrupt: bool,
}

impl RunShape {
    /// An end-to-end run measuring for about `seconds`.
    fn end_to_end(seconds: u64) -> Self {
        RunShape {
            size: Size::EndToEnd,
            sessions: Sessions::For { seconds },
            trace: None,
            corrupt: false,
        }
    }

    /// The traced run: one untraced reference session at paper scale, then
    /// the in-process re-drive and the probes.
    fn traced() -> Self {
        RunShape {
            size: Size::PaperScale,
            sessions: Sessions::One,
            trace: Some(ProbeSizes {
                genomes: 250,
                slice_generations: 5,
                cap: Duration::from_secs(2),
            }),
            corrupt: false,
        }
    }

    /// `--quick`: one short session that doubles as the traced reference.
    fn quick() -> Self {
        RunShape {
            size: Size::Quick,
            sessions: Sessions::One,
            trace: Some(ProbeSizes {
                genomes: 40,
                slice_generations: 1,
                cap: Duration::from_millis(200),
            }),
            corrupt: false,
        }
    }
}

/// What one run of one workload measured.
struct RunOutcome {
    end_to_end: Vec<(&'static str, f64)>,
    traced: Option<Traced>,
    gates: Gates,
    sessions: Vec<Session>,
    generations: u32,
}

fn session_median(sessions: &[Session], f: impl Fn(&Session) -> f64) -> f64 {
    median(&sessions.iter().map(f).collect::<Vec<_>>())
}

/// Runs `workload` once: the sessions, the gates, and (when asked) the
/// traced re-drive of the first session's campaign.
fn run_once(
    env: &Env,
    workload: &'static Workload,
    seed: u64,
    shape: RunShape,
    run_tag: &str,
    fingerprints: &mut Fingerprints,
) -> Result<RunOutcome, String> {
    let generations = workload.generations(shape.size);
    let n_sessions = match shape.sessions {
        Sessions::For { seconds } => workload.sessions_for(seconds),
        Sessions::One => 1,
    };
    let campaign_shape = |ga_seed| CampaignShape {
        generations,
        population: workload.population(shape.size),
        ga_seed,
        threads: workload.hunt_threads(),
    };
    let mut gates = env.gates();
    let mut sessions: Vec<Session> = Vec::with_capacity(n_sessions);
    for k in 0..n_sessions {
        // A traced run compares everything against one campaign, so its
        // sessions all use the first sub-seed.
        let slot = if shape.trace.is_some() { 0 } else { k as u64 };
        let tag = format!("{run_tag}/s{k}");
        let plan = HuntPlan {
            workload,
            shape: campaign_shape(sub_seed(seed, slot)),
            traced_reference: shape.trace.is_some(),
            corrupt: shape.corrupt,
        };
        let session = run_session(env, &plan, &tag, &mut gates)?;
        // Same campaign, same bytes: a repeated sub-seed must reproduce the
        // earlier payload exactly.
        if let Some(earlier) = sessions.iter().find(|s| s.ga_seed == session.ga_seed) {
            gates.check(earlier.payload == session.payload, || {
                format!(
                    "payload of GA seed {} differs between repeats",
                    session.ga_seed
                )
            });
        }
        let key = Fingerprints::key(workload.name, generations, session.ga_seed);
        fingerprints.check_payload(&key, fnv1a(&session.payload), &mut gates);
        sessions.push(session);
    }

    let end_to_end = vec![
        ("setup_s", session_median(&sessions, |s| s.setup_s)),
        ("hunt_wall_s", session_median(&sessions, |s| s.hunt_wall_s)),
        (
            "evals_per_s",
            session_median(&sessions, |s| s.evaluations as f64 / s.hunt_wall_s),
        ),
        (
            "triage_wall_s",
            session_median(&sessions, |s| s.triage_wall_s),
        ),
        (
            "peak_rss_mb",
            session_median(&sessions, |s| s.peak_rss_kb as f64 / 1024.0),
        ),
    ];

    let traced = match shape.trace {
        None => None,
        Some(sizes) => {
            let first = &sessions[0];
            let reference = Reference {
                payload: &first.payload,
                hunt_wall_s: session_median(&sessions, |s| s.hunt_wall_s),
                control_wall_s: first.control_wall_s,
                telemetry: first
                    .telemetry
                    .as_deref()
                    .expect("a traced run's reference hunt streams telemetry"),
                restarts: first.restarts,
            };
            let config = workload.hunt_config(&campaign_shape(first.ga_seed));
            let dir = env.scratch.join(run_tag).join("traced");
            macro_rules! traced_as {
                ($mode:ty) => {
                    traced_run::<$mode>(
                        workload,
                        &config,
                        &reference,
                        &dir,
                        &env.fixtures,
                        sizes,
                        &mut gates,
                    )
                };
            }
            let traced = match workload.mode {
                "link" => traced_as!(LinkMode),
                "fairness" => traced_as!(FairnessMode),
                "workload" => traced_as!(WorkloadMode),
                "traffic" => traced_as!(TrafficMode),
                other => Err(format!("no traced driver for mode `{other}`")),
            }?;
            let events = traced
                .metrics
                .iter()
                .find(|m| m.name == "netsim.events_per_eval")
                .map(|m| m.value)
                .expect("the traced run reports every per-layer metric");
            let key = Fingerprints::key(workload.name, generations, first.ga_seed);
            fingerprints.check_events(&key, events, &mut gates);
            Some(traced)
        }
    };
    Ok(RunOutcome {
        end_to_end,
        traced,
        gates,
        sessions,
        generations,
    })
}

fn print_run_header(workload: &Workload, seed: u64, outcome: &RunOutcome) {
    println!(
        "workload {} seed {} generations {} sessions {} T={} nproc={} (closed loop)",
        workload.name,
        seed,
        outcome.generations,
        outcome.sessions.len(),
        eval_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
}

fn print_end_to_end(outcome: &RunOutcome) {
    for (k, s) in outcome.sessions.iter().enumerate() {
        println!(
            "  session {k}: ga_seed {} setup {:.4} s hunt {:.4} s evals {} triage {:.4} s rss {:.1} MB",
            s.ga_seed,
            s.setup_s,
            s.hunt_wall_s,
            s.evaluations,
            s.triage_wall_s,
            s.peak_rss_kb as f64 / 1024.0
        );
    }
    for &(name, value) in &outcome.end_to_end {
        let unit = metrics::unit_of(name).expect("table metric");
        println!(
            "  {name:<34} {value:>14.4} {unit:<6} median of {} session(s)",
            outcome.sessions.len()
        );
    }
    println!(
        "  {:<34} {:>14.4} {:<6} {} failed of {} checks",
        "fail_ratio",
        outcome.gates.failed as f64 / outcome.gates.attempted.max(1) as f64,
        "ratio",
        outcome.gates.failed,
        outcome.gates.attempted
    );
}

fn print_layers(traced: &Traced) {
    for metric in &traced.metrics {
        let unit = metrics::unit_of(metric.name).expect("table metric");
        // A `_pNN` metric is only as good as its sample count: say so when
        // fewer than ten samples lie beyond the percentile.
        let asked = metric
            .name
            .rsplit_once("_p")
            .and_then(|(_, p)| p.parse::<u32>().ok());
        let note = match asked {
            Some(p) if stats::supported_tail(metric.samples).is_none_or(|s| s < p) => {
                format!(" (too few samples for p{p})")
            }
            _ => String::new(),
        };
        println!(
            "  {:<34} {:>14.4} {unit:<6} n={}{note}",
            metric.name, metric.value, metric.samples
        );
    }
}

/// Prints one run for people: the header, its end-to-end metrics (unless
/// the run only exists to be traced) and its per-layer metrics and ledger.
fn print_run(
    workload: &Workload,
    seed: u64,
    outcome: &RunOutcome,
    end_to_end: bool,
    out: &Path,
) -> Result<(), String> {
    print_run_header(workload, seed, outcome);
    if end_to_end {
        print_end_to_end(outcome);
    }
    if let Some(traced) = &outcome.traced {
        print_layers(traced);
        report::write_trace(out, workload.name, &traced.spans)?;
        println!("{}", report::ledger(workload, traced, outcome));
    }
    Ok(())
}

/// One run under the contract: header and metrics for people, then the
/// result line.
fn contract_run(env: &Env, args: &Args, name: &str, out: &Path) -> Result<bool, String> {
    let workload = workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let mut shape = if args.trace {
        RunShape::traced()
    } else {
        RunShape::end_to_end(args.seconds)
    };
    shape.corrupt = args.corrupt;
    let mut fingerprints = Fingerprints::load(&args.repo.join("benchmark/fingerprints.json"))?;
    let mut outcome = run_once(env, workload, args.seed, shape, "run", &mut fingerprints)?;
    replay_fixtures(env, &mut outcome.gates)?;
    fingerprints.save_observed(&out.join("fingerprints.json"))?;

    print_run(workload, args.seed, &outcome, !args.trace, out)?;
    let reported: Vec<(&str, f64)> = match &outcome.traced {
        Some(traced) => traced.metrics.iter().map(|m| (m.name, m.value)).collect(),
        None => outcome.end_to_end.clone(),
    };
    println!(
        "{}",
        result_line(outcome.gates.attempted, outcome.gates.failed, &reported)
    );
    Ok(outcome.gates.failed == 0)
}

/// The whole ledger: [`REPEATS`] interleaved end-to-end sets, then one
/// traced run per workload.
fn full_ledger(
    env: &Env,
    args: &Args,
    out: &Path,
    set_tag: &str,
) -> Result<(RunRecord, bool), String> {
    let mut fingerprints = Fingerprints::load(&args.repo.join("benchmark/fingerprints.json"))?;
    let mut record = RunRecord::new(args.seed, args.seconds);
    let mut fixture_gates = env.gates();
    replay_fixtures(env, &mut fixture_gates)?;
    record.add_checks(&fixture_gates);

    // The end-to-end sets. Workloads interleave (w1, w2, w3, w4, w1, ...) so
    // slow stretches of the box spread over all of them.
    let (mut shape, repeats) = if args.quick {
        (RunShape::quick(), 1)
    } else {
        (RunShape::end_to_end(args.seconds), REPEATS)
    };
    shape.corrupt = args.corrupt;
    let sets = (0..repeats).flat_map(|rep| WORKLOADS.iter().map(move |w| (format!("r{rep}"), w)));
    // Then the traced runs at paper scale (`--quick` traced its only set
    // already; `--agree` compares end-to-end numbers only).
    let traced_runs = WORKLOADS
        .iter()
        .filter(|_| !args.quick && !args.agree)
        .map(|w| ("traced".to_string(), w));
    for (phase, workload) in sets.chain(traced_runs) {
        let end_to_end = phase != "traced";
        let shape = if end_to_end {
            shape
        } else {
            RunShape::traced()
        };
        let tag = format!("{set_tag}-{phase}-{}", workload.name);
        let outcome = run_once(env, workload, args.seed, shape, &tag, &mut fingerprints)?;
        print_run(workload, args.seed, &outcome, end_to_end, out)?;
        if end_to_end {
            record.add_end_to_end(workload.name, &outcome.end_to_end);
        }
        if let Some(traced) = &outcome.traced {
            record.add_layers(workload.name, traced);
        }
        record.add_checks(&outcome.gates);
        // Scratch of a finished run is dead weight on the disk.
        let _ = std::fs::remove_dir_all(env.scratch.join(&tag));
    }
    fingerprints.save_observed(&out.join("fingerprints.json"))?;
    let ok = record.failed == 0;
    Ok((record, ok))
}

fn run(args: &Args) -> Result<bool, String> {
    if args.spec {
        let spec = metrics::benchmark_spec(DEFAULT_SECONDS);
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?
        );
        return Ok(true);
    }
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        scratch: args.scratch.clone(),
        fixtures: args.repo.join("crates/corpus/fixtures"),
    };
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    if let Some(name) = &args.workload {
        return contract_run(&env, args, name, &args.out);
    }
    if args.agree {
        let (first, ok_first) = full_ledger(&env, args, &args.out, "a")?;
        let (second, ok_second) = full_ledger(&env, args, &args.out, "b")?;
        let (table, agree) = report::agreement(&first, &second);
        println!("{table}");
        std::fs::write(args.out.join("AGREEMENT.md"), &table)
            .map_err(|e| format!("writing AGREEMENT.md: {e}"))?;
        return Ok(ok_first && ok_second && agree);
    }
    let (record, ok) = full_ledger(&env, args, &args.out, "full")?;
    let summary = record.summary();
    println!("{summary}");
    let results = args.out.join(if args.quick {
        "results-quick.json"
    } else {
        "results.json"
    });
    std::fs::write(&results, record.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", results.display()))?;
    println!("results written to {}", results.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: at least one correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
