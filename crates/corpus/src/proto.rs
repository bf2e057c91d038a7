//! The coordinator ⇄ worker wire protocol for distributed hunts.
//!
//! Frames are length-prefixed JSON: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Every frame is an envelope
//! object `{"kind": "...", "body": ...}`; the `kind` string selects the
//! message and `body` carries its payload. Genome-generic payloads
//! ([`ccfuzz_core::ShardReport`], migrant batches, final snapshots) are
//! encoded and decoded at the call sites, so the framing layer itself stays
//! non-generic and the envelope can be routed before the payload type is
//! known: [`recv_frame`] checks the whole frame and keeps the body as text,
//! and [`decode`] reads that text straight into the message type.
//!
//! The protocol is strictly coordinator-driven: a worker only ever reacts
//! to the frame it just received, so the coordinator alone decides when a
//! generation is evaluated, when the migration ring runs and when the
//! campaign stops. That is what makes a fixed worker count deterministic —
//! there is no racing on who reaches a boundary first.
//!
//! ```text
//!   coordinator                                worker
//!       |  <--------------- hello{worker} ------- |   (handshake)
//!       |  ---------------- assign{...} --------> |
//!       |  ---------------- evaluate{g} --------> |
//!       |  <--------------- report{...} --------- |   (per generation)
//!       |  ---------------- proceed{g,m,c} -----> |
//!       |  <--------------- migrants[...] ------- |   (migration rounds)
//!       |  ---------------- inbound[...] -------> |
//!       |  <--------------- checkpoint_done{g} -- |   (checkpoint rounds)
//!       |  ---------------- finish{g} ----------> |
//!       |  <--------------- final{snapshot} ----- |
//! ```

use crate::hunt::HuntConfig;
use serde::value::DeError;
use serde::{Deserialize, Reader, Serialize, Writer};
use std::io::{self, Read, Write};
use std::ops::Range;

/// Upper bound on a single frame's payload. Far above any real snapshot;
/// this guards against a corrupt length prefix allocating the moon.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Worker → coordinator handshake; identifies which shard connected.
pub const HELLO: &str = "hello";
/// Coordinator → worker: campaign config and island range assignment.
pub const ASSIGN: &str = "assign";
/// Coordinator → worker: evaluate the given generation.
pub const EVALUATE: &str = "evaluate";
/// Worker → coordinator: the shard report for an evaluated generation.
pub const REPORT: &str = "report";
/// Coordinator → worker: evolve past the generation boundary.
pub const PROCEED: &str = "proceed";
/// Worker → coordinator: migrants leaving this worker's islands.
pub const MIGRANTS: &str = "migrants";
/// Coordinator → worker: migrants routed into this worker's islands.
pub const INBOUND: &str = "inbound";
/// Worker → coordinator: the periodic checkpoint was persisted.
pub const CHECKPOINT_DONE: &str = "checkpoint_done";
/// Coordinator → worker: the campaign stopped; send the final snapshot.
pub const FINISH: &str = "finish";
/// Worker → coordinator: the worker's final fuzzer snapshot.
pub const FINAL: &str = "final";
/// Worker → coordinator: the worker hit an unrecoverable error.
pub const FATAL: &str = "fatal";

/// Writes one `{kind, body}` frame: length prefix, JSON payload, flush.
pub fn send_frame<W: Write, T: Serialize + ?Sized>(
    w: &mut W,
    kind: &str,
    body: &T,
) -> io::Result<()> {
    let mut json = Writer::compact();
    json.begin_object();
    json.key("kind");
    json.str(kind);
    json.key("body");
    body.serialize(&mut json);
    json.end_object();
    let bytes = json.into_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_BYTES", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(&bytes)?;
    w.flush()
}

/// A received frame's body, still as JSON text; [`decode`] reads it.
#[derive(Debug)]
pub struct FrameBody {
    frame: String,
    body: Range<usize>,
}

/// Reads one frame and splits the envelope into `(kind, body)`. The whole
/// frame is checked as JSON here, so a malformed frame is an `InvalidData`
/// error of the link rather than of the message. An `UnexpectedEof` error
/// here is how a dead peer announces itself.
pub fn recv_frame<R: Read>(r: &mut R) -> io::Result<(String, FrameBody)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    // The prefix is untrusted: grow with the bytes that actually arrive
    // instead of reserving up to MAX_FRAME_BYTES on a 4-byte header's say-so.
    let mut buf = Vec::new();
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let frame = String::from_utf8(buf).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame is not UTF-8: {e}"),
        )
    })?;
    let (kind, body) = read_envelope(&frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame envelope: {e}")))?;
    Ok((kind, FrameBody { frame, body }))
}

/// Checks a whole frame and returns its kind and the byte range of its
/// body. As everywhere, unknown keys are skipped and the first of a
/// repeated key wins.
fn read_envelope(frame: &str) -> Result<(String, Range<usize>), DeError> {
    let mut r = Reader::new(frame);
    let (mut kind, mut body) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "kind" if kind.is_none() => kind = Some(String::deserialize(&mut r)?),
            "body" if body.is_none() => {
                let start = r.position();
                r.skip_value()?;
                body = Some(start..r.position());
            }
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    Ok((
        kind.ok_or_else(|| DeError::missing_field("kind"))?,
        body.ok_or_else(|| DeError::missing_field("body"))?,
    ))
}

/// Decodes a frame body into its typed message, prefixing errors with the
/// frame kind for diagnosis.
pub fn decode<T: Deserialize>(kind: &str, body: &FrameBody) -> Result<T, String> {
    serde_json::from_str(&body.frame[body.body.clone()])
        .map_err(|e| format!("decoding `{kind}` frame: {e}"))
}

/// Worker → coordinator handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The worker index this process was spawned as.
    pub worker: usize,
}

/// Coordinator → worker: everything a worker needs to build its fuzzer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assign {
    /// The full hunt configuration; every worker builds only its own
    /// island range from it (island init is a pure per-island fork of the
    /// seed) and only ever advances that range.
    pub config: HuntConfig,
    /// This worker's index.
    pub worker: usize,
    /// Fleet size (after clamping to the island count).
    pub n_workers: usize,
    /// First global island index this worker owns.
    pub island_start: usize,
    /// One past the last global island index this worker owns.
    pub island_end: usize,
    /// Worker-checkpoint cadence in generations (0 = never).
    pub checkpoint_every: u32,
    /// Directory the worker persists its checkpoints into.
    pub checkpoint_dir: String,
    /// Resume from the worker checkpoint committed at this generation
    /// boundary instead of constructing a fresh population.
    pub resume_generation: Option<u32>,
}

/// Coordinator → worker: evaluate generation `generation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evaluate {
    /// The generation to evaluate; must match the worker's boundary.
    pub generation: u32,
}

/// Coordinator → worker: the fleet survives the boundary after
/// `generation`; evolve (and migrate / checkpoint when flagged).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proceed {
    /// The generation that was just absorbed.
    pub generation: u32,
    /// Run the migration exchange at this boundary.
    pub migrate: bool,
    /// Persist a worker checkpoint at this boundary and acknowledge it.
    pub checkpoint: bool,
}

/// Worker → coordinator: the checkpoint for a boundary was persisted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointDone {
    /// The generation boundary the persisted checkpoint captures.
    pub generation: u32,
}

/// Coordinator → worker: the campaign stopped; align the boundary and
/// reply with the final snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finish {
    /// The boundary the coordinator stopped at.
    pub next_generation: u32,
}

/// Worker → coordinator: an unrecoverable worker-side error.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fatal {
    /// What went wrong.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_cca::CcaKind;
    use ccfuzz_core::campaign::FuzzMode;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let mut buf = Vec::new();
        let hello = Hello { worker: 3 };
        send_frame(&mut buf, HELLO, &hello).unwrap();
        let proceed = Proceed {
            generation: 7,
            migrate: true,
            checkpoint: false,
        };
        send_frame(&mut buf, PROCEED, &proceed).unwrap();

        let mut cursor = Cursor::new(buf);
        let (kind, body) = recv_frame(&mut cursor).unwrap();
        assert_eq!(kind, HELLO);
        assert_eq!(decode::<Hello>(&kind, &body).unwrap(), hello);
        let (kind, body) = recv_frame(&mut cursor).unwrap();
        assert_eq!(kind, PROCEED);
        assert_eq!(decode::<Proceed>(&kind, &body).unwrap(), proceed);
        // The stream is fully drained: the next read reports EOF, which is
        // exactly the signal the supervisor treats as worker death.
        let err = recv_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn assign_roundtrips_with_its_embedded_config() {
        let assign = Assign {
            config: HuntConfig::quick(CcaKind::Bbr, FuzzMode::Topology, 4, 33),
            worker: 1,
            n_workers: 2,
            island_start: 1,
            island_end: 2,
            checkpoint_every: 1,
            checkpoint_dir: "/tmp/does-not-matter".to_string(),
            resume_generation: Some(2),
        };
        let mut buf = Vec::new();
        send_frame(&mut buf, ASSIGN, &assign).unwrap();
        let (kind, body) = recv_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(kind, ASSIGN);
        assert_eq!(decode::<Assign>(&kind, &body).unwrap(), assign);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        // A length prefix beyond the guard is refused before allocating.
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&(u32::MAX).to_be_bytes());
        bogus.extend_from_slice(b"{}");
        let err = recv_frame(&mut Cursor::new(bogus)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A frame cut mid-payload surfaces as EOF, not a hang or a panic.
        let mut buf = Vec::new();
        send_frame(&mut buf, HELLO, &Hello { worker: 0 }).unwrap();
        buf.truncate(buf.len() - 1);
        let err = recv_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // Valid JSON that is not an envelope is rejected as InvalidData.
        let payload = b"[1,2,3]";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        let err = recv_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
