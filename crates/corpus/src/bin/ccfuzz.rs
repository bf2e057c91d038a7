//! `ccfuzz` — the corpus command line.
//!
//! ```text
//! ccfuzz hunt     --cca reno [--mode traffic|link|...|workload] [--generations N] ...
//! ccfuzz minimize [--id ID | --all] [--retain F] [--budget N] ...
//! ccfuzz replay   [--cca NAME] [--strict] ...
//! ccfuzz report   ...
//! ccfuzz trace    ID [--buckets N] [--json PATH] [--csv PATH] ...
//! ```
//!
//! The corpus subcommands take `--corpus DIR` (default `./corpus`), and
//! every subcommand refuses a flag it does not take. Run with no arguments
//! for full usage.
//!
//! Stdout carries only machine-consumable payloads (the hunt's finding as
//! JSON, replay/report tables, trace timelines); all progress and resolved
//! configuration chatter goes to stderr, so `ccfuzz hunt ... | jq .id`
//! works.

use ccfuzz_analysis::traceview;
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::FuzzMode;
use ccfuzz_core::pool::num_threads_default;
use ccfuzz_corpus::checkpoint::CampaignCheckpoint;
use ccfuzz_corpus::daemon::{http_request, resolve_daemon_addr, HuntSpec};
use ccfuzz_corpus::hunt::{hunt_controlled, HuntConfig, HuntControl, HuntOutcome};
use ccfuzz_corpus::minimize::{minimize_finding_with, MinimizeConfig, MinimizePool};
use ccfuzz_corpus::replay::replay_findings;
use ccfuzz_corpus::report::corpus_report;
use ccfuzz_corpus::store::{Corpus, CorpusConfig, InsertOutcome};
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_obs::HuntTelemetry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

mod cli;
use cli::{check_args, flag_value, install_signal_handlers, usage_err, CliError, SHUTDOWN};

/// Exit code for a graceful shutdown (SIGINT/SIGTERM finished the in-flight
/// generation and wrote the final checkpoint). Distinct from runtime
/// failures (1) and usage errors (2) so wrappers can tell "interrupted but
/// resumable" from "broken".
const EXIT_INTERRUPTED: u8 = 3;

const USAGE: &str = "\
ccfuzz — CC-Fuzz findings corpus tool

USAGE:
    ccfuzz <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    hunt        Run a fuzzing campaign and persist its best finding
    resume      Resume a checkpointed hunt to its byte-identical conclusion
    minimize    Shrink stored finding(s) while retaining their score
    replay      Re-simulate the corpus and report score drift
    report      Print a per-bucket summary of the corpus
    trace       Replay one finding with recording on and render its timeline
    submit      Queue a hunt on a ccfuzzd daemon (same flags as hunt)
    status      Poll a daemon for one hunt's (or every hunt's) status
    fetch       Print a completed daemon hunt's finding payload

COMMON OPTIONS (hunt, resume, minimize, replay, report, trace):
    --corpus DIR        Corpus directory (default: ./corpus)
    --top-k N           Findings retained per (CCA, mode) bucket (default: 8)

A subcommand refuses any flag it does not list (exit 2).

Progress and configuration chatter go to stderr; stdout carries only the
subcommand's payload (hunt prints the finding as JSON).

Hunts stop gracefully on SIGINT/SIGTERM: the in-flight generation finishes,
the final checkpoint is written (with --checkpoint) and the process exits
with code 3. Campaign writers hold an exclusive corpus lock.

hunt OPTIONS:
    --cca NAME          reno | cubic | cubic-ns3-buggy | bbr |
                        bbr-probertt-on-rto | vegas | dctcp  (required)
    --mode MODE         traffic | link | fairness | aqm | topology | workload
                        (default: traffic)
    --flows LIST        Comma-separated CCAs: the flows competing in
                        fairness mode, or the CCA pool arriving flows draw
                        from in workload mode (default: the --cca flow
                        vs. reno)
    --qdisc KIND        Disciplines an aqm hunt explores: any | red | codel
                        (default: any)
    --hops N            Initial hop count of a topology hunt (default: 3)
    --generations N     GA generations (default: 5)
    --seconds S         Scenario duration in seconds (default: 3)
    --seed N            GA master seed (default: 1)
    --threads N         Evaluation worker threads (default: autodetect)
    --islands N         Override island count
    --population N      Override per-island population
    --telemetry PATH    Stream one JSONL progress snapshot per generation
                        to PATH
    --checkpoint PATH   Persist a resumable campaign checkpoint to PATH
    --checkpoint-every N
                        Checkpoint cadence in generations (default: 1;
                        0 = only the final checkpoint; needs --checkpoint)
    --panic-budget N    Caught evaluation panics tolerated before the
                        campaign aborts (default: 100; each panic is
                        persisted under <corpus>/panics/ either way)

resume OPTIONS:
    <PATH>              Checkpoint file written by hunt --checkpoint
    --corpus DIR        Override the corpus directory recorded in the
                        checkpoint
    --telemetry PATH    Stream one JSONL progress snapshot per generation

minimize OPTIONS:
    --id ID             Minimize one finding (default: all findings)
    --all               Minimize every stored finding
    --retain F          Score fraction to retain, 0..1 (default: 0.8)
    --budget N          Max simulations per finding (default: 300)
    Candidates are simulated on every available core; the output is the
    same for any core count. Per finding, stderr gets one cost line.

replay OPTIONS:
    --cca NAME          Replay against this CCA instead of the stored one
    --strict            Exit non-zero if any finding drifted

trace OPTIONS:
    <ID>                Finding to trace (first positional argument)
    --buckets N         Timeline rows per flow (default: 20)
    --json PATH         Also export the raw event stream as JSONL
    --csv PATH          Also export the raw event stream as CSV

submit OPTIONS (plus every hunt campaign flag):
    --daemon ADDR|DIR   Daemon address (host:port), or its root directory —
                        the address is then read from DIR/daemon.addr
                        (required; status and fetch take it too)
    --workers N         Worker processes to shard the islands across
                        (default: 1)
    --checkpoint-every N
                        Worker/campaign checkpoint cadence (default: 1)
    --panic-budget N    Panic budget; fleet restarts count against it
                        (default: 100)

status OPTIONS:
    [ID]                Hunt to query (default: list every hunt)

fetch OPTIONS:
    <ID>                Completed hunt whose finding payload to print; the
                        bytes match what `ccfuzz hunt` prints on stdout
";

fn main() -> ExitCode {
    cli::main(run)
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, CliError> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage_err(format!("{flag}: invalid value `{v}`"))),
    }
}

fn parse_cca(name: &str) -> Result<CcaKind, CliError> {
    CcaKind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = CcaKind::ALL.iter().map(|k| k.name()).collect();
        usage_err(format!(
            "unknown CCA `{name}` (known: {})",
            known.join(", ")
        ))
    })
}

/// The valid `--mode` set, for usage errors.
fn mode_names() -> String {
    FuzzMode::ALL
        .iter()
        .map(|m| m.name())
        .collect::<Vec<_>>()
        .join("|")
}

fn open_corpus_at(args: &[String], dir: String) -> Result<Corpus, CliError> {
    let top_k = parse_num(args, "--top-k", CorpusConfig::default().top_k_per_bucket)?;
    let corpus = Corpus::open_with(
        dir,
        CorpusConfig {
            top_k_per_bucket: top_k,
        },
    )
    .map_err(|e| CliError::Runtime(e.to_string()))?;
    let recovery = corpus.recovery();
    if !recovery.is_clean() {
        eprintln!(
            "corpus recovery: swept {} staging file(s), quarantined {} corrupt finding(s) into {}",
            recovery.swept_tmp,
            recovery.quarantined.len(),
            corpus.quarantine_dir().display()
        );
        for name in &recovery.quarantined {
            eprintln!("  quarantined: {name}");
        }
    }
    Ok(corpus)
}

fn open_corpus(args: &[String]) -> Result<Corpus, CliError> {
    let dir = flag_value(args, "--corpus")?.unwrap_or_else(|| "corpus".to_string());
    open_corpus_at(args, dir)
}

/// The flags of every subcommand that opens a corpus.
const CORPUS_FLAGS: &[&str] = &["--corpus", "--top-k"];

/// The campaign flags [`parse_hunt_config`] reads, for `hunt` and `submit`.
const HUNT_FLAGS: &[&str] = &[
    "--cca",
    "--mode",
    "--flows",
    "--qdisc",
    "--hops",
    "--generations",
    "--seconds",
    "--seed",
    "--threads",
    "--islands",
    "--population",
];

/// The flags a local hunt takes beside [`HUNT_FLAGS`] and the corpus.
const CAMPAIGN_FLAGS: &[&str] = &[
    "--telemetry",
    "--checkpoint",
    "--checkpoint-every",
    "--panic-budget",
];

/// The flags `submit` takes beside [`HUNT_FLAGS`].
const SUBMIT_FLAGS: &[&str] = &[
    "--daemon",
    "--workers",
    "--checkpoint-every",
    "--panic-budget",
];

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(subcommand) = args.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "hunt" => cmd_hunt(rest),
        "resume" => cmd_resume(rest),
        "minimize" => cmd_minimize(rest),
        "replay" => cmd_replay(rest),
        "report" => cmd_report(rest),
        "trace" => cmd_trace(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "fetch" => cmd_fetch(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage_err(format!(
            "unknown subcommand `{other}`\n\n{USAGE}"
        ))),
    }
}

/// Parses the hunt-shaped flags (`--cca`, `--mode`, GA overrides, ...)
/// shared by `hunt` and `submit` into a fully resolved [`HuntConfig`].
fn parse_hunt_config(args: &[String]) -> Result<HuntConfig, CliError> {
    let cca = parse_cca(&flag_value(args, "--cca")?.ok_or_else(|| usage_err("requires --cca"))?)?;
    let mode = match flag_value(args, "--mode")? {
        None => FuzzMode::Traffic,
        Some(name) => FuzzMode::from_name(&name)
            .ok_or_else(|| usage_err(format!("--mode: `{name}` is not {}", mode_names())))?,
    };
    let generations: u32 = parse_num(args, "--generations", 5)?;
    let seconds: u64 = parse_num(args, "--seconds", 3)?;
    let seed: u64 = parse_num(args, "--seed", 1)?;

    let mut config = HuntConfig::quick(cca, mode, generations, seed);
    config.duration = SimDuration::from_secs(seconds.max(1));
    if let Some(flows) = flag_value(args, "--flows")? {
        if mode != FuzzMode::Fairness && mode != FuzzMode::Workload {
            return Err(usage_err(
                "--flows only applies to --mode fairness or --mode workload",
            ));
        }
        let flow_ccas = CcaKind::parse_list(&flows).map_err(usage_err)?;
        if mode == FuzzMode::Fairness && flow_ccas.len() < 2 {
            return Err(usage_err("--flows needs at least two comma-separated CCAs"));
        }
        if flow_ccas.is_empty() {
            return Err(usage_err("--flows needs at least one CCA"));
        }
        if mode == FuzzMode::Fairness && flow_ccas[0] != cca {
            return Err(usage_err(format!(
                "--flows starts with `{}` but --cca is `{}`; flow 0 is the algorithm \
                 under test, so the first --flows entry must match --cca",
                flow_ccas[0].name(),
                cca.name()
            )));
        }
        config.flow_ccas = flow_ccas;
    }
    if let Some(qdisc) = flag_value(args, "--qdisc")? {
        if mode != FuzzMode::Aqm {
            return Err(usage_err("--qdisc only applies to --mode aqm"));
        }
        config.qdisc = ccfuzz_core::scenario::QdiscChoice::from_name(&qdisc)
            .ok_or_else(|| usage_err(format!("--qdisc: `{qdisc}` is not any|red|codel")))?;
    }
    if let Some(hops) = flag_value(args, "--hops")? {
        if mode != FuzzMode::Topology {
            return Err(usage_err("--hops only applies to --mode topology"));
        }
        let hops: usize = hops
            .parse()
            .map_err(|_| usage_err("--hops: invalid value"))?;
        if hops == 0 {
            return Err(usage_err("--hops must be at least 1"));
        }
        config.hops = hops;
    }
    if let Some(threads) = flag_value(args, "--threads")? {
        let threads: usize = threads
            .parse()
            .map_err(|_| usage_err("--threads: invalid value"))?;
        if threads == 0 {
            return Err(usage_err("--threads must be at least 1"));
        }
        config.ga.threads = threads;
    }
    if let Some(islands) = flag_value(args, "--islands")? {
        config.ga.islands = islands
            .parse()
            .map_err(|_| usage_err("--islands: invalid value"))?;
    }
    if let Some(pop) = flag_value(args, "--population")? {
        config.ga.population_per_island = pop
            .parse()
            .map_err(|_| usage_err("--population: invalid value"))?;
    }
    // Building the campaign asserts these; refuse them here instead.
    config.ga.validate().map_err(usage_err)?;
    Ok(config)
}

fn cmd_hunt(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(
        args,
        "hunt",
        &[HUNT_FLAGS, CORPUS_FLAGS, CAMPAIGN_FLAGS],
        &[],
        false,
    )?;
    let config = parse_hunt_config(args)?;
    let checkpoint_path = flag_value(args, "--checkpoint")?.map(PathBuf::from);
    if flag_present(args, "--checkpoint-every") && checkpoint_path.is_none() {
        return Err(usage_err("--checkpoint-every requires --checkpoint"));
    }
    let checkpoint_every: u32 = parse_num(args, "--checkpoint-every", 1)?;
    let panic_budget: u64 = parse_num(args, "--panic-budget", 100)?;

    let corpus = open_corpus(args)?;
    run_campaign(
        &corpus,
        &config,
        args,
        checkpoint_path,
        checkpoint_every,
        Some(panic_budget),
        None,
    )
}

/// Resolves the `--daemon` flag (required by the client subcommands) to a
/// `host:port` address.
fn daemon_addr(args: &[String]) -> Result<String, CliError> {
    let value = flag_value(args, "--daemon")?
        .ok_or_else(|| usage_err("requires --daemon ADDR|ROOT-DIR"))?;
    resolve_daemon_addr(&value).map_err(CliError::Runtime)
}

/// The positional argument, if any — e.g. a hunt id: the first argument
/// that is neither a flag nor a flag's value, wherever the flags are.
fn positional(args: &[String]) -> Option<String> {
    args.iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || !args[i - 1].starts_with("--")))
        .map(|(_, a)| a.clone())
}

/// `ccfuzz submit`: build the same hunt a local `ccfuzz hunt` would run and
/// queue it on a `ccfuzzd` daemon instead. Prints the assigned hunt id.
fn cmd_submit(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(args, "submit", &[HUNT_FLAGS, SUBMIT_FLAGS], &[], false)?;
    let config = parse_hunt_config(args)?;
    let workers: usize = parse_num(args, "--workers", 1)?;
    if workers == 0 {
        return Err(usage_err("--workers must be at least 1"));
    }
    let checkpoint_every: u32 = parse_num(args, "--checkpoint-every", 1)?;
    let panic_budget: u64 = parse_num(args, "--panic-budget", 100)?;
    let spec = HuntSpec {
        config,
        workers,
        checkpoint_every,
        panic_budget: Some(panic_budget),
    };
    let body = serde_json::to_string(&spec)
        .map_err(|e| CliError::Runtime(format!("serializing hunt spec: {e}")))?;
    let addr = daemon_addr(args)?;
    let (code, reply) =
        http_request(&addr, "POST", "/hunts", Some(&body)).map_err(CliError::Runtime)?;
    if code != 200 {
        return Err(CliError::Runtime(format!(
            "daemon rejected the hunt ({code}): {}",
            reply.trim()
        )));
    }
    eprintln!(
        "submitted to {addr}: cca={} mode={} generations={} seed={} workers={workers}",
        spec.config.cca.name(),
        spec.config.mode.name(),
        spec.config.ga.generations,
        spec.config.ga.seed
    );
    print!("{reply}");
    Ok(ExitCode::SUCCESS)
}

/// `ccfuzz status [ID]`: one hunt's status, or every hunt's.
fn cmd_status(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(args, "status", &[&["--daemon"]], &[], true)?;
    let addr = daemon_addr(args)?;
    let path = match positional(args) {
        Some(id) => format!("/hunts/{id}"),
        None => "/hunts".to_string(),
    };
    let (code, reply) = http_request(&addr, "GET", &path, None).map_err(CliError::Runtime)?;
    if code != 200 {
        return Err(CliError::Runtime(format!(
            "daemon returned {code}: {}",
            reply.trim()
        )));
    }
    print!("{reply}");
    Ok(ExitCode::SUCCESS)
}

/// `ccfuzz fetch ID`: a completed hunt's finding payload — the exact bytes
/// `ccfuzz hunt` would have printed to stdout.
fn cmd_fetch(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(args, "fetch", &[&["--daemon"]], &[], true)?;
    let addr = daemon_addr(args)?;
    let id = positional(args).ok_or_else(|| usage_err("fetch requires a hunt id"))?;
    let (code, reply) = http_request(&addr, "GET", &format!("/hunts/{id}/findings"), None)
        .map_err(CliError::Runtime)?;
    if code != 200 {
        return Err(CliError::Runtime(format!(
            "daemon returned {code}: {}",
            reply.trim()
        )));
    }
    print!("{reply}");
    Ok(ExitCode::SUCCESS)
}

/// `ccfuzz resume PATH`: load a checkpoint, verify it, and run the campaign
/// it describes to completion (or the next interruption). The resumed
/// trajectory — findings, digests, stdout payload — is byte-identical to
/// what the uninterrupted hunt would have produced.
fn cmd_resume(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(args, "resume", &[CORPUS_FLAGS, &["--telemetry"]], &[], true)?;
    let path = positional(args).ok_or_else(|| usage_err("resume requires a checkpoint path"))?;
    let checkpoint =
        CampaignCheckpoint::load(&path).map_err(|e| CliError::Runtime(e.to_string()))?;
    let dir = flag_value(args, "--corpus")?.unwrap_or_else(|| checkpoint.corpus_dir.clone());
    let corpus = open_corpus_at(args, dir)?;
    let config = checkpoint.config.clone();
    if checkpoint.completed {
        eprintln!("checkpoint {path} is already complete; replaying its final state");
    } else {
        eprintln!(
            "resuming {path}: next generation {}/{}, {} evaluation(s) done",
            checkpoint.state.next_generation(),
            config.ga.generations,
            checkpoint.state.evaluations()
        );
    }
    run_campaign(
        &corpus,
        &config,
        args,
        Some(PathBuf::from(path)),
        checkpoint.checkpoint_every,
        checkpoint.panic_budget,
        Some(checkpoint),
    )
}

/// The shared hunt/resume engine: takes the corpus lock, prints the
/// resolved campaign, installs the graceful-shutdown handlers, runs the
/// controlled hunt and reports its outcome.
fn run_campaign(
    corpus: &Corpus,
    config: &HuntConfig,
    args: &[String],
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: u32,
    panic_budget: Option<u64>,
    resume: Option<CampaignCheckpoint>,
) -> Result<ExitCode, CliError> {
    let mode = config.mode;
    // Campaign writers are exclusive: a second hunt/minimize/resume against
    // the same corpus fails fast instead of interleaving writes.
    let _lock = corpus
        .lock()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    // Print the fully resolved campaign before running, so a hunt is
    // reproducible from its log alone. All of this is chatter: it goes to
    // stderr so stdout stays a clean JSON payload.
    let campaign = config.campaign();
    eprintln!(
        "hunting: cca={} mode={} duration={}s seed={}",
        config.cca.name(),
        mode.name(),
        config.duration.as_secs_f64(),
        config.ga.seed
    );
    if mode == FuzzMode::Fairness {
        let flows: Vec<&str> = campaign.flow_ccas.iter().map(|c| c.name()).collect();
        eprintln!(
            "  flows: [{}] (max {} concurrent)",
            flows.join(", "),
            campaign.max_flows
        );
    }
    if mode == FuzzMode::Aqm {
        eprintln!("  qdisc search space: {:?}", campaign.qdisc_choice);
    }
    if mode == FuzzMode::Topology {
        eprintln!(
            "  topology: {} initial hop(s), pool [{}]",
            campaign.topology_hops,
            campaign
                .flow_ccas
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if mode == FuzzMode::Workload {
        eprintln!(
            "  workload: arrival CCA pool [{}], up to {} background elephant(s)",
            campaign
                .flow_ccas
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", "),
            campaign.max_flows
        );
    }
    eprintln!(
        "  ga: islands={} population/island={} generations={} crossover={:.2} \
         migration={:.2}@{} k_elite={} threads={}",
        config.ga.islands,
        config.ga.population_per_island,
        config.ga.generations,
        config.ga.crossover_fraction,
        config.ga.migration_fraction,
        config.ga.migration_interval,
        config.ga.k_elite,
        config.ga.threads
    );
    eprintln!(
        "  scoring: objective={:?} perf_weight={} trace_weight={} reference={:.1} Mbps",
        campaign.scoring.objective,
        campaign.scoring.performance_weight,
        campaign.scoring.trace_weight,
        campaign.scoring.reference_rate_bps / 1e6
    );

    // Live telemetry: a per-generation status line on stderr, plus (with
    // --telemetry) a JSONL snapshot stream.
    let mut telemetry = HuntTelemetry::new().with_status_line();
    if let Some(path) = flag_value(args, "--telemetry")? {
        let sink = std::fs::File::create(&path)
            .map_err(|e| CliError::Runtime(format!("--telemetry {path}: {e}")))?;
        telemetry = telemetry.with_sink(Box::new(sink));
        eprintln!("  telemetry: streaming snapshots to {path}");
    }
    telemetry
        .metrics
        .recovered_files
        .add(corpus.recovery().total());
    if let Some(path) = &checkpoint_path {
        eprintln!(
            "  checkpoint: {} every {} generation(s)",
            path.display(),
            checkpoint_every.max(1)
        );
    }

    install_signal_handlers();
    let outcome = hunt_controlled(
        corpus,
        config,
        Some(&telemetry),
        HuntControl {
            shutdown: Some(&SHUTDOWN),
            checkpoint_path: checkpoint_path.clone(),
            checkpoint_every,
            panic_budget,
            resume,
        },
    )
    .map_err(|e| CliError::Runtime(e.to_string()))?;

    let caught = outcome.panics();
    if caught > 0 {
        eprintln!(
            "caught {caught} evaluation panic(s); artifacts persisted under {}",
            corpus.root().join("panics").display()
        );
    }
    let (finding, decision) = match outcome {
        HuntOutcome::Completed {
            finding, decision, ..
        } => (*finding, decision),
        HuntOutcome::Interrupted {
            next_generation,
            evaluations,
            ..
        } => {
            eprintln!("{}", telemetry.phase_report());
            eprintln!(
                "interrupted: stopped gracefully after {evaluations} evaluation(s) at a \
                 resumable boundary (next generation {next_generation})"
            );
            match &checkpoint_path {
                Some(path) => eprintln!("resume with: ccfuzz resume {}", path.display()),
                None => eprintln!("no --checkpoint was set; this run cannot be resumed"),
            }
            return Ok(ExitCode::from(EXIT_INTERRUPTED));
        }
        HuntOutcome::PanicBudgetExhausted {
            panics,
            next_generation,
        } => {
            eprintln!("{}", telemetry.phase_report());
            return Err(CliError::Runtime(format!(
                "panic budget exhausted: {panics} evaluation panic(s) caught, budget {}; \
                 artifacts are under {}, campaign stopped before generation {next_generation}",
                panic_budget.unwrap_or(0),
                corpus.root().join("panics").display()
            )));
        }
    };
    eprintln!("{}", telemetry.phase_report());
    eprintln!(
        "best trace: score={:.6} (perf={:.6}, trace={:.6}) goodput={:.3} Mbps packets={}",
        finding.outcome.score,
        finding.outcome.performance_score,
        finding.outcome.trace_score,
        finding.outcome.goodput_bps / 1e6,
        finding.genome.packet_count()
    );
    if let ccfuzz_corpus::finding::GenomePayload::Scenario(scenario) = &finding.genome {
        if let Some(gene) = &scenario.qdisc {
            eprintln!(
                "  qdisc: {} ecn={}",
                gene.discipline.label(),
                if gene.ecn { "on" } else { "off" }
            );
        }
    }
    if let ccfuzz_corpus::finding::GenomePayload::Topology(genome) = &finding.genome {
        eprintln!("  evolved topology ({} hop(s)):", genome.hop_count());
        for line in genome.detail_table().lines() {
            eprintln!("    {line}");
        }
    }
    if let ccfuzz_corpus::finding::GenomePayload::Workload(genome) = &finding.genome {
        eprintln!(
            "  workload: {:.1} flows/s, sizes {}..{} pkt (shape {:.2}), {} elephant(s), pool [{}]",
            genome.arrivals.process.rate_per_sec(),
            genome.arrivals.size.min_packets,
            genome.arrivals.size.max_packets,
            genome.arrivals.size.shape,
            genome.elephant_count(),
            genome
                .cca_pool
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if let Some(fairness) = &finding.fairness {
        for (i, cca) in fairness.per_flow_cca.iter().enumerate() {
            eprintln!(
                "  flow {i}: {cca} goodput={:.3} Mbps delivered={}",
                fairness.per_flow_goodput_bps.get(i).copied().unwrap_or(0.0) / 1e6,
                fairness.per_flow_delivered.get(i).copied().unwrap_or(0)
            );
        }
        eprintln!(
            "  jain_index={:.4} max_starvation={:.3}s",
            fairness.jain_index, fairness.max_starvation_secs
        );
    }
    match decision {
        InsertOutcome::Added => eprintln!("corpus: added {}", finding.id),
        InsertOutcome::ReplacedWeaker { previous_score } => eprintln!(
            "corpus: replaced weaker duplicate of {} (previous score {previous_score:.6})",
            finding.id
        ),
        InsertOutcome::DuplicateRejected { existing_score } => eprintln!(
            "corpus: duplicate of {} (stored score {existing_score:.6} is stronger or equal)",
            finding.id
        ),
        InsertOutcome::BucketFullRejected { weakest_kept_score } => {
            eprintln!("corpus: bucket full, weakest kept finding scores {weakest_kept_score:.6}")
        }
    }
    // The machine-readable payload: the finding itself, as one JSON object.
    let json = serde_json::to_string(&finding)
        .map_err(|e| CliError::Runtime(format!("serializing finding: {e}")))?;
    println!("{json}");
    Ok(ExitCode::SUCCESS)
}

/// `ccfuzz trace ID`: replay one stored finding with the run log recorded
/// and render its trace view: per-flow timelines plus the per-hop queue
/// table. Optionally exports the view's event stream as JSONL / CSV.
fn cmd_trace(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(
        args,
        "trace",
        &[CORPUS_FLAGS, &["--buckets", "--json", "--csv"]],
        &[],
        true,
    )?;
    let id = positional(args)
        .ok_or_else(|| usage_err("trace requires a finding id (see `ccfuzz report`)"))?;
    let buckets: usize = parse_num(args, "--buckets", traceview::DEFAULT_TIMELINE_BUCKETS)?;
    if buckets == 0 {
        return Err(usage_err("--buckets must be at least 1"));
    }
    let corpus = open_corpus(args)?;
    let finding = corpus
        .get(&id)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    finding
        .validate()
        .map_err(|e| CliError::Runtime(format!("finding {id}: {e}")))?;

    eprintln!(
        "tracing {id}: cca={} mode={} score={:.6}",
        finding.cca.name(),
        finding.mode.name(),
        finding.outcome.score
    );
    let (outcome, digest, result) = finding.replay_recorded();
    if digest != finding.behavior_digest {
        return Err(CliError::Runtime(format!(
            "traced replay of {id} diverged from the stored behaviour \
             (digest {digest:#018x} != stored {:#018x}); the simulator has \
             changed since this finding was recorded",
            finding.behavior_digest
        )));
    }
    eprintln!(
        "  replayed score {:.6} (stored {:.6}), digest verified",
        outcome.score, finding.outcome.score
    );

    let events = traceview::events(&result.stats);
    let flows = traceview::flows(&events);
    println!(
        "trace {}: {} events over {:.3}s ({} flows, {} hops)",
        id,
        events.len(),
        events.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0),
        flows.len(),
        traceview::hop_count(&events),
    );
    for flow in flows {
        println!("\nflow {} timeline:", traceview::flow_name(flow));
        print!("{}", traceview::flow_timeline_table(&events, flow, buckets));
    }
    println!("\nper-hop queues:");
    print!("{}", traceview::hop_queue_table(&events));

    if let Some(path) = flag_value(args, "--json")? {
        std::fs::write(&path, traceview::trace_to_jsonl(&events))
            .map_err(|e| CliError::Runtime(format!("--json {path}: {e}")))?;
        eprintln!("wrote JSONL event stream to {path}");
    }
    if let Some(path) = flag_value(args, "--csv")? {
        std::fs::write(&path, traceview::trace_to_csv(&events))
            .map_err(|e| CliError::Runtime(format!("--csv {path}: {e}")))?;
        eprintln!("wrote CSV event stream to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_minimize(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(
        args,
        "minimize",
        &[CORPUS_FLAGS, &["--id", "--retain", "--budget"]],
        &["--all"],
        false,
    )?;
    let corpus = open_corpus(args)?;
    // Minimization rewrites findings in place, so it is a campaign writer.
    let _lock = corpus
        .lock()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let defaults = MinimizeConfig::default();
    let retain: f64 = parse_num(args, "--retain", defaults.retain_fraction)?;
    if !(0.0..=1.0).contains(&retain) {
        return Err(usage_err("--retain must be within [0, 1]"));
    }
    let cfg = MinimizeConfig {
        retain_fraction: retain,
        max_evaluations: parse_num(args, "--budget", defaults.max_evaluations)?,
    };

    let ids: Vec<String> = match flag_value(args, "--id")? {
        Some(id) => vec![id],
        None => {
            let mut ids = corpus.ids().map_err(|e| CliError::Runtime(e.to_string()))?;
            ids.sort();
            if ids.is_empty() {
                println!("corpus is empty, nothing to minimize");
                return Ok(ExitCode::SUCCESS);
            }
            ids
        }
    };

    for id in ids {
        let finding = corpus
            .get(&id)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let started = Instant::now();
        let mut pool = MinimizePool::new(num_threads_default());
        let (minimized, report) = minimize_finding_with(&finding, &cfg, &mut pool);
        // What the speculation cost goes to stderr; stdout is the same for
        // any worker count.
        eprintln!(
            "{id}: {} simulations counted, {} speculative discarded, {} worker(s), {} ms",
            report.evaluations,
            pool.discarded(),
            pool.workers(),
            started.elapsed().as_millis()
        );
        // `update` removes the old file and, if the id moved into an
        // occupied signature bucket, keeps whichever finding is stronger.
        let stored = corpus
            .update(&id, &minimized)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        println!(
            "{id}: {} -> {} packets, score {:.6} -> {:.6} (threshold {:.6}, {} evals){}",
            report.original_packets,
            report.minimized_packets,
            report.original_score,
            report.minimized_score,
            report.threshold,
            report.evaluations,
            if minimized.id != id {
                match &stored {
                    InsertOutcome::DuplicateRejected { existing_score } => format!(
                        "; behaviour bucket moved onto {} (stronger, score {existing_score:.6}) — \
                         minimized copy dropped",
                        minimized.id
                    ),
                    InsertOutcome::ReplacedWeaker { previous_score } => format!(
                        "; behaviour bucket moved, replaced weaker {} (score {previous_score:.6})",
                        minimized.id
                    ),
                    InsertOutcome::BucketFullRejected { weakest_kept_score } => format!(
                        "; behaviour bucket moved but that bucket is full of stronger findings \
                         (weakest kept {weakest_kept_score:.6}) — minimized copy dropped"
                    ),
                    InsertOutcome::Added => {
                        format!("; behaviour bucket moved, renamed to {}", minimized.id)
                    }
                }
            } else {
                String::new()
            }
        );
        for pass in &report.passes {
            println!("    {pass}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(
        args,
        "replay",
        &[CORPUS_FLAGS, &["--cca"]],
        &["--strict"],
        false,
    )?;
    let corpus = open_corpus(args)?;
    let cca_override = match flag_value(args, "--cca")? {
        Some(name) => Some(parse_cca(&name)?),
        None => None,
    };
    let findings = corpus
        .load_all()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    // Validate every stored configuration before burning simulations on
    // it: a hand-edited or corrupted finding produces a descriptive error
    // naming the finding, not a simulator panic mid-replay.
    for finding in &findings {
        finding
            .validate()
            .map_err(|e| CliError::Runtime(format!("finding {}: {e}", finding.id)))?;
    }
    let report = replay_findings(&findings, cca_override);
    print!("{}", report.to_text());
    if flag_present(args, "--strict") && !report.is_clean() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(args, "report", &[CORPUS_FLAGS], &[], false)?;
    let corpus = open_corpus(args)?;
    print!(
        "{}",
        corpus_report(&corpus).map_err(|e| CliError::Runtime(e.to_string()))?
    );
    Ok(ExitCode::SUCCESS)
}
