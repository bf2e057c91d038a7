//! Pins the GA operator streams of the multi-flow genomes byte for byte.
//!
//! Each case seeds six parents and breeds 400 children from them: every
//! fourth child is a crossover of two neighbouring parents, the rest are
//! mutations, and each child replaces the parent it was bred from, so the
//! stream walks many operator steps deep. The children's serde JSON is
//! hashed with FNV-1a. A refactor of the operators (scenario, AQM, topology
//! and workload genomes) must move no RNG draw and no serialized byte, so
//! these constants may only change with a deliberate change to the search.
//! On drift the observed value is printed as `{:#018x}`; a deliberate
//! re-record copies it over the constant.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::genome::Genome;
use ccfuzz_core::scenario::{QdiscChoice, ScenarioGenome};
use ccfuzz_core::topology::TopologyGenome;
use ccfuzz_core::workload::WorkloadGenome;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::SimDuration;
use serde::Serialize;

const DUR: SimDuration = SimDuration::from_secs(4);
const PARENTS: usize = 6;
const CHILDREN: usize = 400;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a digest of the operator stream bred from `generate`'s parents.
fn stream<G: Genome + Serialize>(seed: u64, generate: fn(&mut SimRng) -> G) -> u64 {
    let mut rng = SimRng::new(seed);
    let mut parents: Vec<G> = (0..PARENTS).map(|_| generate(&mut rng)).collect();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..CHILDREN {
        let slot = i % PARENTS;
        let child = if i % 4 == 3 {
            let other = &parents[(slot + 1) % PARENTS];
            parents[slot]
                .crossover(other, &mut rng)
                .expect("multi-flow genomes always cross")
        } else {
            parents[slot].mutate(&mut rng)
        };
        child.validate().expect("operators keep genomes valid");
        let json = serde_json::to_string(&child).expect("genomes serialize");
        hash = fnv1a(hash, json.as_bytes());
        parents[slot] = child;
    }
    hash
}

/// Checks the streams of seeds 1–3 against `want`, reporting every
/// observed value at once.
fn assert_streams<G: Genome + Serialize>(
    label: &str,
    generate: fn(&mut SimRng) -> G,
    want: [u64; 3],
) {
    let got: Vec<u64> = (1..=3).map(|seed| stream(seed, generate)).collect();
    let shown: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(
        got,
        want,
        "{label}: operator stream drifted, observed [{}]",
        shown.join(", ")
    );
}

#[test]
fn fairness_operator_stream_is_pinned() {
    assert_streams(
        "fairness",
        |rng| {
            let flows = [CcaKind::Bbr, CcaKind::Reno, CcaKind::Cubic];
            ScenarioGenome::generate(&flows, 5, DUR, 0, rng)
        },
        [0xcb9c22dc9d5ca7cc, 0x9974adc1b45cfcf5, 0x055d55f28adf77c1],
    );
}

#[test]
fn fairness_with_traffic_operator_stream_is_pinned() {
    assert_streams(
        "fairness+traffic",
        |rng| ScenarioGenome::generate(&[CcaKind::Bbr, CcaKind::Reno], 4, DUR, 120, rng),
        [0x3b6a8a5d7b08ac78, 0xe80b3379ae25a2a7, 0xdd2a0c075783f3c4],
    );
}

#[test]
fn aqm_operator_stream_is_pinned() {
    assert_streams(
        "aqm",
        |rng| ScenarioGenome::generate_aqm(CcaKind::Reno, DUR, 120, QdiscChoice::Any, rng),
        [0xcc46fe9018f1427e, 0xfa11434708cbccad, 0xf3d889015490ff95],
    );
}

#[test]
fn topology_operator_stream_is_pinned() {
    assert_streams(
        "topology",
        |rng| {
            let pool = [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr];
            TopologyGenome::generate(CcaKind::Reno, 3, DUR, 120, &pool, rng)
        },
        [0x2b29759e1c1506e3, 0xd5e63365523ce67f, 0xf750c5805972fc05],
    );
}

#[test]
fn workload_operator_stream_is_pinned() {
    assert_streams(
        "workload",
        |rng| {
            let pool = [CcaKind::Reno, CcaKind::Cubic, CcaKind::Vegas];
            WorkloadGenome::generate(CcaKind::Reno, &pool, 4, DUR, rng)
        },
        [0x2efc702364f158c5, 0x7f7f290fadaedac8, 0x0904cb59d7f49a47],
    );
}
