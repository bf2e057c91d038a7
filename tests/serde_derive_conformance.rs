//! Conformance of the vendored `serde_derive` (`vendor/serde_derive`): one
//! table per supported form beyond the plain struct/enum shapes, asserting
//! the *exact* JSON bytes written and what decodes. Every persisted type in
//! the workspace derives through this macro, so these bytes are the on-disk
//! and on-the-wire contract.

use cc_fuzz::fuzz::scenario::{ScenarioGenome, MIN_FAIRNESS_FLOWS};
use cc_fuzz::netsim::config::SimConfig;
use cc_fuzz::netsim::queue::Qdisc;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Tagged<G, M> {
    genome: G,
    marks: Vec<M>,
    best: Option<G>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Attrs {
    first: u32,
    #[serde(default)]
    plain_default: Vec<u8>,
    #[serde(default = "seven")]
    path_default: u32,
    #[serde(skip_serializing_if = "is_seven")]
    skip_only: u32,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    both: Option<String>,
    last: bool,
}

fn seven() -> u32 {
    7
}

fn is_seven(n: &u32) -> bool {
    *n == 7
}

fn attrs(plain_default: &[u8], path_default: u32, skip_only: u32, both: Option<&str>) -> Attrs {
    Attrs {
        first: 1,
        plain_default: plain_default.to_vec(),
        path_default,
        skip_only,
        both: both.map(str::to_string),
        last: true,
    }
}

/// Decodes every `(json, expected)` row; `None` means the decode must fail.
fn assert_decodes(table: &[(&str, Option<Attrs>)]) {
    for (json, expected) in table {
        let got = serde_json::from_str::<Attrs>(json).ok();
        assert_eq!(&got, expected, "decoding {json}");
    }
}

#[test]
fn generic_struct_round_trips_with_two_instantiations() {
    let numbers = Tagged {
        genome: 5u64,
        marks: vec![true, false],
        best: None,
    };
    let json = r#"{"genome":5,"marks":[true,false],"best":null}"#;
    assert_eq!(serde_json::to_string(&numbers).unwrap(), json);
    assert_eq!(
        serde_json::from_str::<Tagged<u64, bool>>(json).unwrap(),
        numbers
    );

    // A second instantiation, nesting the first as its parameter.
    let nested = Tagged {
        genome: numbers.clone(),
        marks: vec!["a".to_string()],
        best: Some(numbers),
    };
    let inner = json;
    let json = format!(r#"{{"genome":{inner},"marks":["a"],"best":{inner}}}"#);
    assert_eq!(serde_json::to_string(&nested).unwrap(), json);
    assert_eq!(
        serde_json::from_str::<Tagged<Tagged<u64, bool>, String>>(&json).unwrap(),
        nested
    );
    // The parameter's own decode errors surface through the generic impl.
    assert!(serde_json::from_str::<Tagged<u64, bool>>(&json).is_err());
}

#[test]
fn default_tolerates_a_missing_key_but_not_a_wrong_type() {
    assert_decodes(&[
        (
            r#"{"first":1,"path_default":2,"skip_only":3,"last":true}"#,
            Some(attrs(&[], 2, 3, None)),
        ),
        (
            r#"{"first":1,"plain_default":[9],"path_default":2,"skip_only":3,"both":"x","last":true}"#,
            Some(attrs(&[9], 2, 3, Some("x"))),
        ),
        // Present but of the wrong type: an error, not the default.
        (
            r#"{"first":1,"plain_default":"no","path_default":2,"skip_only":3,"last":true}"#,
            None,
        ),
        (
            r#"{"first":1,"path_default":2,"skip_only":3,"both":4,"last":true}"#,
            None,
        ),
        // Fields without `default` stay mandatory.
        (r#"{"path_default":2,"skip_only":3,"last":true}"#, None),
    ]);
}

#[test]
fn default_path_supplies_the_missing_value() {
    assert_decodes(&[
        (
            r#"{"first":1,"skip_only":3,"last":true}"#,
            Some(attrs(&[], 7, 3, None)),
        ),
        (
            r#"{"first":1,"path_default":0,"skip_only":3,"last":true}"#,
            Some(attrs(&[], 0, 3, None)),
        ),
        (
            r#"{"first":1,"path_default":true,"skip_only":3,"last":true}"#,
            None,
        ),
        // `skip_serializing_if` alone does not make the key optional.
        (r#"{"first":1,"last":true}"#, None),
    ]);
}

#[test]
fn skip_serializing_if_omits_at_the_predicate_and_keeps_declaration_order() {
    let table = [
        (
            attrs(&[], 7, 7, None),
            r#"{"first":1,"plain_default":[],"path_default":7,"last":true}"#,
        ),
        (
            attrs(&[], 7, 8, None),
            r#"{"first":1,"plain_default":[],"path_default":7,"skip_only":8,"last":true}"#,
        ),
        (
            attrs(&[2], 0, 7, Some("x")),
            r#"{"first":1,"plain_default":[2],"path_default":0,"both":"x","last":true}"#,
        ),
        (
            attrs(&[2], 0, 8, Some("x")),
            r#"{"first":1,"plain_default":[2],"path_default":0,"skip_only":8,"both":"x","last":true}"#,
        ),
    ];
    for (value, json) in table {
        assert_eq!(serde_json::to_string(&value).unwrap(), json);
    }
}

/// A `SimConfig` exactly as serialized before the qdisc, ECN, topology and
/// arrival fields existed.
const PRE_QDISC_SIM_CONFIG: &str = r#"{"link":{"FixedRate":{"rate_bps":12000000}},"propagation_delay":20000000,"queue_capacity":{"Packets":100},"cross_traffic":{"injections":[],"duration":5000000000},"mss":1448,"cross_traffic_packet_size":1448,"duration":5000000000,"flow_start":0,"sack_enabled":true,"delayed_ack":true,"delayed_ack_timeout":200000000,"delayed_ack_count":2,"min_rto":1000000000,"max_rto":60000000000,"initial_rto":1000000000,"sender_buffer_packets":4611686018427387903,"initial_cwnd":10,"stats_interval":10000000,"record_events":true,"max_events":20000000,"seed":1}"#;

/// A fairness `ScenarioGenome` exactly as serialized before the AQM mode
/// added `min_flows` and `qdisc`.
const PRE_AQM_SCENARIO_GENOME: &str = r#"{"flows":[{"cca":"Bbr","start":0,"stop":null},{"cca":"Reno","start":218262373,"stop":1424595627}],"duration":2000000000,"max_flows":3,"cca_pool":["Bbr","Reno"],"traffic":null}"#;

#[test]
fn pre_qdisc_and_pre_aqm_literals_reserialize_byte_identically() {
    let sim: SimConfig = serde_json::from_str(PRE_QDISC_SIM_CONFIG).unwrap();
    assert_eq!(sim.qdisc, Qdisc::DropTail);
    assert!(!sim.ecn_enabled && sim.topology.is_none() && sim.arrivals.is_none());
    assert_eq!(serde_json::to_string(&sim).unwrap(), PRE_QDISC_SIM_CONFIG);

    let genome: ScenarioGenome = serde_json::from_str(PRE_AQM_SCENARIO_GENOME).unwrap();
    assert_eq!(genome.min_flows, MIN_FAIRNESS_FLOWS);
    assert!(genome.qdisc.is_none());
    assert_eq!(
        serde_json::to_string(&genome).unwrap(),
        PRE_AQM_SCENARIO_GENOME
    );

    // Away from the defaults the fields are written, after all older keys.
    let mut sim = sim;
    sim.ecn_enabled = true;
    let json = serde_json::to_string(&sim).unwrap();
    assert_eq!(
        json,
        PRE_QDISC_SIM_CONFIG.replace(r#""seed":1}"#, r#""seed":1,"ecn_enabled":true}"#)
    );
    assert_eq!(serde_json::from_str::<SimConfig>(&json).unwrap(), sim);
}

/// A field written and read by a module instead of its own impls.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct WithModule {
    #[serde(with = "as_text")]
    count: u32,
    #[serde(default, with = "as_text")]
    spare: u32,
    plain: u32,
}

/// `#[serde(with = "as_text")]`: a `u32` as a JSON string of its digits.
mod as_text {
    use serde::value::DeError;
    use serde::{Reader, Writer};

    pub fn serialize(n: &u32, w: &mut Writer<'_>) {
        w.str(&n.to_string());
    }

    pub fn deserialize(r: &mut Reader<'_>) -> Result<u32, DeError> {
        r.str()?
            .parse()
            .map_err(|e| DeError(format!("not a count: {e}")))
    }
}

#[test]
fn with_routes_one_field_through_a_module() {
    let value = WithModule {
        count: 42,
        spare: 0,
        plain: 42,
    };
    let json = r#"{"count":"42","spare":"0","plain":42}"#;
    assert_eq!(serde_json::to_string(&value).unwrap(), json);
    assert_eq!(serde_json::from_str::<WithModule>(json).unwrap(), value);
    // `default` still covers a missing key; a present one goes through the
    // module, which refuses what it cannot read.
    let missing = r#"{"count":"42","plain":42}"#;
    assert_eq!(serde_json::from_str::<WithModule>(missing).unwrap(), value);
    for bad in [
        r#"{"count":42,"plain":42}"#,
        r#"{"count":"x","plain":42}"#,
        r#"{"plain":42}"#,
    ] {
        assert!(serde_json::from_str::<WithModule>(bad).is_err(), "{bad}");
    }
}
