//! # ccfuzz-cca
//!
//! Congestion control algorithms for the CC-Fuzz simulator:
//!
//! * [`reno`] — TCP Reno / NewReno (slow start, AIMD congestion avoidance).
//! * [`cubic`] — TCP CUBIC, with a switch reproducing the NS3 slow-start
//!   window-update bug the paper found (§4.2) and the corrected (Linux-like)
//!   behaviour.
//! * [`bbr`] — TCP BBR v1 (gain cycling, windowed-max bandwidth filter,
//!   min-RTT probing), including the probe-round clocking behaviour that the
//!   paper's §4.1 stall exploits, plus the "ProbeRTT on RTO" mitigation the
//!   paper proposes.
//! * [`vegas`] — TCP Vegas, a delay-based algorithm used to diversify the
//!   multi-CCA realism scoring of §5.
//! * [`dctcp`] — DCTCP (RFC 8257), the fractional ECN responder the AQM
//!   fuzzing mode pits against RED and CoDel gateways.
//!
//! All algorithms implement
//! [`CongestionControl`](ccfuzz_netsim::cc::CongestionControl) and are
//! constructed either directly or through the [`CcaKind`] factory that the
//! fuzzer configuration uses. The factory returns a [`CcaDispatch`] (see
//! [`dispatch`]): one enum over every algorithm, dispatched by `match` so
//! no per-ACK call is virtual.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbr;
pub mod cubic;
pub mod dctcp;
pub mod dispatch;
pub mod reno;
pub mod vegas;

pub use bbr::Bbr;
pub use cubic::{Cubic, SlowStartBehaviour};
pub use dctcp::Dctcp;
pub use dispatch::CcaDispatch;
pub use reno::Reno;
pub use vegas::Vegas;

use serde::{Deserialize, Serialize};

/// Identifies a congestion control algorithm variant; the factory used by
/// fuzzer configurations and the `paper` table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CcaKind {
    /// TCP Reno / NewReno.
    Reno,
    /// TCP CUBIC with the correct (Linux-like) slow-start cap.
    Cubic,
    /// TCP CUBIC with the NS3 slow-start window-update bug from §4.2.
    CubicNs3Buggy,
    /// TCP BBR v1 (default behaviour).
    Bbr,
    /// TCP BBR v1 with the paper's mitigation: enter ProbeRTT on RTO.
    BbrProbeRttOnRto,
    /// TCP Vegas.
    Vegas,
    /// DCTCP: fractional ECN responder (RFC 8257); degrades to Reno-like
    /// AIMD on mark-free paths.
    Dctcp,
}

impl CcaKind {
    /// All known variants (used for multi-CCA realism scoring and reports).
    pub const ALL: [CcaKind; 7] = [
        CcaKind::Reno,
        CcaKind::Cubic,
        CcaKind::CubicNs3Buggy,
        CcaKind::Bbr,
        CcaKind::BbrProbeRttOnRto,
        CcaKind::Vegas,
        CcaKind::Dctcp,
    ];

    /// Short name used in reports and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            CcaKind::Reno => "reno",
            CcaKind::Cubic => "cubic",
            CcaKind::CubicNs3Buggy => "cubic-ns3-buggy",
            CcaKind::Bbr => "bbr",
            CcaKind::BbrProbeRttOnRto => "bbr-probertt-on-rto",
            CcaKind::Vegas => "vegas",
            CcaKind::Dctcp => "dctcp",
        }
    }

    /// Parses a name as produced by [`CcaKind::name`].
    pub fn from_name(name: &str) -> Option<CcaKind> {
        CcaKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Parses a comma-separated list of CCA names (e.g. `"bbr,reno"`), as
    /// used by multi-flow fairness scenarios where every flow instantiates
    /// its own algorithm. Whitespace around names and empty segments
    /// are ignored; an unknown name yields an error naming it.
    pub fn parse_list(list: &str) -> Result<Vec<CcaKind>, String> {
        let mut kinds = Vec::new();
        for raw in list.split(',') {
            let name = raw.trim();
            if name.is_empty() {
                continue;
            }
            match CcaKind::from_name(name) {
                Some(kind) => kinds.push(kind),
                None => {
                    let known: Vec<&str> = CcaKind::ALL.iter().map(|k| k.name()).collect();
                    return Err(format!(
                        "unknown CCA `{name}` (known: {})",
                        known.join(", ")
                    ));
                }
            }
        }
        Ok(kinds)
    }

    /// Builds a fresh algorithm instance with an initial window of
    /// `initial_cwnd` packets.
    pub fn build(&self, initial_cwnd: u64) -> CcaDispatch {
        use SlowStartBehaviour::{CappedAtSsthresh, Ns3Uncapped};
        match self {
            CcaKind::Reno => CcaDispatch::Reno(Reno::new(initial_cwnd)),
            CcaKind::Cubic => CcaDispatch::Cubic(Cubic::new(initial_cwnd, CappedAtSsthresh)),
            CcaKind::CubicNs3Buggy => CcaDispatch::Cubic(Cubic::new(initial_cwnd, Ns3Uncapped)),
            CcaKind::Bbr => CcaDispatch::Bbr(Bbr::new(initial_cwnd, false)),
            CcaKind::BbrProbeRttOnRto => CcaDispatch::Bbr(Bbr::new(initial_cwnd, true)),
            CcaKind::Vegas => CcaDispatch::Vegas(Vegas::new(initial_cwnd)),
            CcaKind::Dctcp => CcaDispatch::Dctcp(Dctcp::new(initial_cwnd)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::cc::CongestionControl;

    #[test]
    fn names_roundtrip() {
        for kind in CcaKind::ALL {
            assert_eq!(CcaKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CcaKind::from_name("nope"), None);
    }

    #[test]
    fn parse_list_handles_whitespace_and_errors() {
        assert_eq!(
            CcaKind::parse_list("bbr,reno").unwrap(),
            vec![CcaKind::Bbr, CcaKind::Reno]
        );
        assert_eq!(
            CcaKind::parse_list(" cubic , vegas ,").unwrap(),
            vec![CcaKind::Cubic, CcaKind::Vegas]
        );
        assert_eq!(CcaKind::parse_list("").unwrap(), vec![]);
        assert!(CcaKind::parse_list("bbr,nope")
            .unwrap_err()
            .contains("nope"));
    }

    #[test]
    fn parse_list_error_names_the_offender_and_the_full_valid_set() {
        // The CLI prints this error verbatim on exit code 2, so it must
        // name the unknown CCA *and* every valid name the user could have
        // meant.
        let err = CcaKind::parse_list("reno,tahoe").unwrap_err();
        assert!(err.contains("unknown CCA `tahoe`"), "{err}");
        for kind in CcaKind::ALL {
            assert!(
                err.contains(kind.name()),
                "error must list `{}`: {err}",
                kind.name()
            );
        }
    }

    #[test]
    fn each_parsed_flow_gets_its_own_instance() {
        // The multi-flow engine builds one CC per flow; instances must be
        // independent state machines even for the same kind.
        let kinds = CcaKind::parse_list("reno,reno").unwrap();
        let ccs: Vec<_> = kinds.iter().map(|k| k.build(10)).collect();
        assert_eq!(ccs.len(), 2);
        assert_eq!(ccs[0].name(), ccs[1].name());
    }

    #[test]
    fn factory_builds_named_algorithms() {
        for kind in CcaKind::ALL {
            let cc = kind.build(10);
            assert!(!cc.name().is_empty());
            assert!(cc.cwnd() >= 1);
        }
        assert_eq!(CcaKind::Bbr.build(10).name(), "bbr");
        assert_eq!(CcaKind::Reno.build(10).name(), "reno");
    }

    /// Each algorithm's constants against the document that defines it.
    /// BBR's are checked in `bbr::tests::v1_constants_match_the_specification`,
    /// CUBIC's fast convergence, which is code rather than a constant, in
    /// `cubic::tests::fast_convergence_lowers_w_max_on_consecutive_losses`,
    /// and DCTCP's window and loss reaction, which are Reno's, in
    /// `dctcp::tests::loss_still_halves_like_reno`.
    #[test]
    fn constants_match_their_specifications() {
        let table: [(&str, f64, f64); 9] = [
            // RFC 5681 §3.1, equation (4): ssthresh = max(FlightSize / 2, 2 * SMSS).
            ("reno::BETA", reno::BETA, 0.5),
            ("reno::MIN_CWND", reno::MIN_CWND as f64, 2.0),
            // RFC 9438: C = 0.4, and beta_cubic = 0.7 (§4.6).
            ("cubic::C", cubic::C, 0.4),
            ("cubic::BETA", cubic::BETA, 0.7),
            ("cubic::MIN_CWND", cubic::MIN_CWND as f64, 2.0),
            // RFC 8257 §3.3: the alpha EWMA's gain g and alpha's initial value.
            ("dctcp::GAIN", dctcp::GAIN, 1.0 / 16.0),
            ("dctcp::INITIAL_ALPHA", dctcp::INITIAL_ALPHA, 1.0),
            // Brakmo & Peterson 1995 and Linux `tcp_vegas.c`: alpha 2, beta 4.
            ("vegas::ALPHA", vegas::ALPHA, 2.0),
            ("vegas::BETA", vegas::BETA, 4.0),
        ];
        for (name, ours, spec) in table {
            assert_eq!(ours, spec, "{name}");
        }
    }
}
