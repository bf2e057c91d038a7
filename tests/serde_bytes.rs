//! Pins the exact bytes the JSON layer writes, on disk and on the wire.
//!
//! Each case hashes serialized output with FNV-1a 64: every committed
//! fixture finding re-serialized pretty, a tiny campaign checkpoint per hunt
//! mode (pretty and compact), a worker checkpoint file, every frame kind of a
//! two-worker toy fleet, and a `Value` document shaped like the benchmark
//! report. A change to the serializer may move none of them. On drift the
//! observed values are printed as `{:#018x}`; a deliberate re-record copies
//! them over the constants.

use cc_fuzz::cca::CcaKind;
use cc_fuzz::corpus::checkpoint::{hunt_config_digest, CampaignCheckpoint};
use cc_fuzz::corpus::hunt::{hunt_controlled, HuntConfig, HuntControl};
use cc_fuzz::corpus::proto::{
    send_frame, Assign, CheckpointDone, Evaluate, Fatal, Finish, Hello, Proceed, ASSIGN,
    CHECKPOINT_DONE, EVALUATE, FATAL, FINAL, FINISH, HELLO, INBOUND, MIGRANTS, PROCEED, REPORT,
};
use cc_fuzz::corpus::store::{Corpus, CorpusConfig};
use cc_fuzz::corpus::worker::{WorkerCheckpoint, WORKER_CHECKPOINT_SCHEMA};
use cc_fuzz::corpus::Finding;
use cc_fuzz::fuzz::campaign::FuzzMode;
use cc_fuzz::fuzz::shard::{drive, route_migrants, LoopControl, ShardFinal, Shards};
use cc_fuzz::fuzz::{
    shard_ranges, Fuzzer, GaParams, ModeGenome, ShardCoordinator, ShardReport, SimEvaluator,
    TrafficGenome,
};
use cc_fuzz::netsim::time::SimDuration;
use serde::value::Value;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares every `(label, observed)` pair with `want`, reporting all drift
/// at once.
fn assert_pinned(got: &[(String, u64)], want: &[(&str, u64)]) {
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = want.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, want_labels, "the set of pinned cases changed");
    let drift: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), (_, w))| g != w)
        .map(|((label, g), (_, w))| format!("{label}: observed {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(
        drift.is_empty(),
        "serialized bytes drifted:\n{}",
        drift.join("\n")
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccfuzz-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_config(mode: FuzzMode, generations: u32) -> HuntConfig {
    let mut config = HuntConfig::quick(CcaKind::Reno, mode, generations, 11);
    config.ga.islands = 2;
    config.ga.population_per_island = 3;
    config.ga.threads = 1;
    config.duration = SimDuration::from_secs(1);
    config
}

#[test]
fn fixture_findings_reserialize_to_pinned_bytes() {
    let dir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/corpus/fixtures/findings"
    );
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    let got: Vec<(String, u64)> = paths
        .iter()
        .map(|path| {
            let finding: Finding =
                serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
            let json = serde_json::to_string_pretty(&finding).unwrap() + "\n";
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(json.as_bytes()))
        })
        .collect();
    assert_pinned(
        &got,
        &[
            ("cubic-traffic-0303000c0d", 0x5365e054d410397f),
            ("reno-aqm-010100060b", 0xfd3ee6503fecc8dd),
            ("reno-fairness-0909030f12", 0xb535c710742cda01),
            ("reno-link-0808000e0a", 0x161bb7d5d88d96c5),
            ("reno-topology-0809010d12", 0x248e7a0a4622f465),
            ("reno-traffic-0303000e0d", 0x7c773151dccf52e4),
            ("reno-workload-0606011001", 0xdb52375221934687),
        ],
    );
}

#[test]
fn campaign_checkpoints_of_every_mode_keep_their_bytes() {
    let mut got = Vec::new();
    for mode in FuzzMode::ALL {
        let dir = temp_dir(mode.name());
        let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();
        let path = dir.join("ck.json");
        let control = HuntControl {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 1,
            panic_budget: Some(5),
            ..HuntControl::default()
        };
        hunt_controlled(&corpus, &tiny_config(mode, 2), None, control).unwrap();
        let mut ck = CampaignCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // The only fields that depend on where the hunt ran.
        ck.corpus_dir = "corpus".to_string();
        ck.telemetry.checkpoint_bytes = 0;
        let pretty = serde_json::to_string_pretty(&ck).unwrap();
        let compact = serde_json::to_string(&ck).unwrap();
        got.push((format!("{}.pretty", mode.name()), fnv1a(pretty.as_bytes())));
        got.push((
            format!("{}.compact", mode.name()),
            fnv1a(compact.as_bytes()),
        ));
    }
    assert_pinned(
        &got,
        &[
            ("traffic.pretty", 0x468d9245b57b27a6),
            ("traffic.compact", 0xcb8aae63a2d2fc4a),
            ("link.pretty", 0x8580abc5f9c0c911),
            ("link.compact", 0xc4c722e3883b3375),
            ("fairness.pretty", 0x4a5011fe5a4e07a4),
            ("fairness.compact", 0x2e6e9fc5873af64e),
            ("aqm.pretty", 0x4b5268ae911772eb),
            ("aqm.compact", 0xe3c007564eecc545),
            ("topology.pretty", 0x2ff1de2eef8cb1b0),
            ("topology.compact", 0x4b151dfd517a0542),
            ("workload.pretty", 0xf36d20181ab505fd),
            ("workload.compact", 0x02f6c1b7eafdb59b),
        ],
    );
}

/// A two-worker fleet without the sockets: every message the daemon and its
/// workers exchange is encoded with `send_frame`, grouped by frame kind.
/// Each lane keeps only its own islands, as a worker process does, so the
/// `final` frames and the worker checkpoint carry the worker's slice.
struct WireLanes<'f> {
    lanes: Vec<Fuzzer<'f, TrafficGenome, SimEvaluator>>,
    ranges: Vec<(usize, usize)>,
    params: GaParams,
    frames: BTreeMap<&'static str, Vec<u8>>,
}

impl WireLanes<'_> {
    fn record<T: Serialize + ?Sized>(&mut self, kind: &'static str, body: &T) {
        send_frame(self.frames.entry(kind).or_default(), kind, body).unwrap();
    }
}

impl Shards<TrafficGenome> for WireLanes<'_> {
    type Error = String;

    fn evaluate(&mut self, generation: u32) -> Result<Vec<ShardReport<TrafficGenome>>, String> {
        let mut reports = Vec::new();
        for i in 0..self.lanes.len() {
            self.record(EVALUATE, &Evaluate { generation });
            let (start, end) = self.ranges[i];
            let report = self.lanes[i].shard_evaluate(start, end);
            self.record(REPORT, &report);
            reports.push(report);
        }
        Ok(reports)
    }

    fn proceed(
        &mut self,
        generation: u32,
        migrate: bool,
        checkpoint: bool,
        _coordinator: &ShardCoordinator<TrafficGenome>,
    ) -> Result<(), String> {
        let proceed = Proceed {
            generation,
            migrate,
            checkpoint,
        };
        let mut outbound = Vec::new();
        for i in 0..self.lanes.len() {
            self.record(PROCEED, &proceed);
            let (start, end) = self.ranges[i];
            self.lanes[i].shard_evolve(start, end);
            if migrate {
                let batches = self.lanes[i].shard_collect_migrants(start, end);
                self.record(MIGRANTS, &batches);
                outbound.push(batches);
            }
        }
        if migrate {
            let inbound = route_migrants(&self.params, &self.ranges, outbound)?;
            for (i, batches) in inbound.into_iter().enumerate() {
                self.record(INBOUND, &batches);
                self.lanes[i].shard_apply_migrants(batches)?;
            }
        }
        for i in 0..self.lanes.len() {
            self.lanes[i].set_next_generation(generation + 1);
            if checkpoint {
                let done = CheckpointDone {
                    generation: generation + 1,
                };
                self.record(CHECKPOINT_DONE, &done);
            }
        }
        Ok(())
    }

    fn finish(&mut self, next_generation: u32) -> Result<Vec<ShardFinal<TrafficGenome>>, String> {
        let mut finals = Vec::new();
        for i in 0..self.lanes.len() {
            self.record(FINISH, &Finish { next_generation });
            self.lanes[i].set_next_generation(next_generation);
            let snapshot = self.lanes[i].snapshot();
            self.record(FINAL, &TrafficGenome::wrap_snapshot(snapshot.clone()));
            let (start, end) = self.ranges[i];
            finals.push((start, end, snapshot));
        }
        Ok(finals)
    }
}

#[test]
fn toy_fleet_frames_and_worker_checkpoint_keep_their_bytes() {
    let mut config = tiny_config(FuzzMode::Traffic, 3);
    config.ga.migration_interval = 1;
    let campaign = config.campaign();
    let evaluator = campaign.evaluator();
    let ranges = shard_ranges(config.ga.islands, 2);
    let lanes: Vec<_> = ranges
        .iter()
        .map(|&(start, end)| {
            campaign
                .build_fuzzer::<TrafficGenome>(&evaluator, None, None, start, end)
                .unwrap()
        })
        .collect();
    let mut fleet = WireLanes {
        lanes,
        ranges: ranges.clone(),
        params: config.ga,
        frames: BTreeMap::new(),
    };
    for (worker, &(island_start, island_end)) in ranges.iter().enumerate() {
        fleet.record(HELLO, &Hello { worker });
        let assign = Assign {
            config: config.clone(),
            worker,
            n_workers: 2,
            island_start,
            island_end,
            checkpoint_every: 1,
            checkpoint_dir: "hunts/hunt-0001/workers".to_string(),
            resume_generation: (worker == 1).then_some(2),
        };
        fleet.record(ASSIGN, &assign);
    }
    let mut coordinator = fleet.lanes[0].coordinator().clone();
    let control = LoopControl {
        checkpoint_every: 1,
        ..LoopControl::default()
    };
    drive(&mut coordinator, &mut fleet, &control).unwrap();
    fleet.record(
        FATAL,
        &Fatal {
            message: "worker 1: \"checkpoint\" write failed:\n\tdisk full \u{1}".to_string(),
        },
    );

    let dir = temp_dir("worker");
    let state = TrafficGenome::wrap_snapshot(fleet.lanes[1].snapshot());
    let checkpoint = WorkerCheckpoint {
        schema: WORKER_CHECKPOINT_SCHEMA,
        worker: 1,
        n_workers: 2,
        config_digest: hunt_config_digest(&config),
        generation: 3,
        state,
    };
    checkpoint.write_into(&dir).unwrap();
    let file = std::fs::read(dir.join(WorkerCheckpoint::file_name(1, 3))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut got: Vec<(String, u64)> = fleet
        .frames
        .iter()
        .map(|(kind, bytes)| (kind.to_string(), fnv1a(bytes)))
        .collect();
    got.push(("worker_checkpoint".to_string(), fnv1a(&file)));
    assert_pinned(
        &got,
        &[
            ("assign", 0x65a9519f96a5a40e),
            ("checkpoint_done", 0x7b291502d57e6ad5),
            ("evaluate", 0xbc055dff9598632f),
            ("fatal", 0x24a7c1fbef156821),
            ("final", 0x17566a1d249aa503),
            ("finish", 0x40a2a84a04c035b5),
            ("hello", 0xd5e3ea861fe0971e),
            ("inbound", 0xa9563e82f023cf92),
            ("migrants", 0xfce0d63838cd3f86),
            ("proceed", 0xfdcf57a8fcd22587),
            ("report", 0x6258cf5ec0cb622c),
            ("worker_checkpoint", 0x1ddb1d9c99052064),
        ],
    );
}

/// A document with the benchmark report's shape, plus every scalar edge the
/// writer special-cases: `-0.0`, non-finite floats, negative and extreme
/// integers, and strings needing every kind of escape.
fn report_shaped_value() -> Value {
    let metric = |value: f64, unit: &str, extra: Vec<(String, Value)>| {
        let mut map = vec![
            ("value".to_string(), Value::F64(value)),
            ("unit".to_string(), Value::Str(unit.to_string())),
        ];
        map.extend(extra);
        Value::Map(map)
    };
    let quartiles = |q1: f64, q3: f64, n: u64| {
        vec![
            ("q1".to_string(), Value::F64(q1)),
            ("q3".to_string(), Value::F64(q3)),
            ("n".to_string(), Value::U64(n)),
        ]
    };
    let workload = |wall: f64, evals: f64| {
        Value::Map(vec![
            (
                "hunt_wall_s".to_string(),
                metric(wall, "s", quartiles(wall * 0.97, wall * 1.03, 10)),
            ),
            (
                "evals_per_s".to_string(),
                metric(evals, "1/s", quartiles(evals - 1.5, evals + 2.25, 10)),
            ),
            ("peak_rss_mb".to_string(), metric(41.5, "MB", Vec::new())),
            (
                "eval.simulate_us_p50".to_string(),
                metric(f64::NAN, "us", vec![("n".to_string(), Value::U64(0))]),
            ),
        ])
    };
    Value::Map(vec![
        ("seed".to_string(), Value::U64(1)),
        ("seconds".to_string(), Value::U64(20)),
        ("threads".to_string(), Value::U64(2)),
        ("attempted".to_string(), Value::U64(u64::MAX)),
        ("failed".to_string(), Value::U64(0)),
        (
            "edges".to_string(),
            Value::Seq(vec![
                Value::F64(-0.0),
                Value::F64(0.0),
                Value::F64(f64::INFINITY),
                Value::F64(1e-300),
                Value::F64(6.02e23),
                Value::F64(-1.0 / 3.0),
                Value::I64(i64::MIN),
                Value::I64(-1),
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::Str("tab\tquote\"slash\\nl\nret\rnul\u{0}us\u{1f}é😀\u{2028}".into()),
                Value::Seq(Vec::new()),
                Value::Map(Vec::new()),
            ]),
        ),
        (
            "workloads".to_string(),
            Value::Map(vec![
                ("hunt_link_bbr".to_string(), workload(0.8127, 4211.25)),
                ("fleet_w2_ckpt".to_string(), workload(1.762, 310.0)),
            ]),
        ),
    ])
}

#[test]
fn a_report_shaped_value_keeps_its_bytes() {
    let value = report_shaped_value();
    let pretty = serde_json::to_string_pretty(&value).unwrap();
    let compact = serde_json::to_string(&value).unwrap();
    assert_pinned(
        &[
            ("pretty".to_string(), fnv1a(pretty.as_bytes())),
            ("compact".to_string(), fnv1a(compact.as_bytes())),
        ],
        &[
            ("pretty", 0x3de25ae71fb1b529),
            ("compact", 0x8718d59cd9ee903b),
        ],
    );
}
