//! Hostile input through the hand-rolled JSON layer (`vendor/serde_json`) and
//! everything that decodes through it at a trust boundary: finding and
//! checkpoint files, coordinator/worker frames, and the daemon's HTTP API.
//! Whatever the bytes, a decode returns — it never panics, never overflows
//! the stack, and never holds more memory than a small multiple of the
//! input — and whatever the value tree, both writers produce text that
//! parses back to it.
//!
//! Run with `CCFUZZ_PROPTEST_CASES=1000` (the CI property job does) for the
//! deep sweep; cases are fixed-seed, so a failure reproduces exactly.

use cc_fuzz::cca::CcaKind;
use cc_fuzz::corpus::checkpoint::CampaignCheckpoint;
use cc_fuzz::corpus::daemon::{read_request, HuntSpec};
use cc_fuzz::corpus::hunt::{hunt_controlled, HuntConfig, HuntControl};
use cc_fuzz::corpus::proto::{decode, recv_frame, send_frame, MAX_FRAME_BYTES, REPORT};
use cc_fuzz::corpus::store::{Corpus, CorpusConfig};
use cc_fuzz::corpus::Finding;
use cc_fuzz::fuzz::campaign::FuzzMode;
use cc_fuzz::netsim::time::SimDuration;
use proptest::prelude::*;
use serde::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Per-thread live/peak heap accounting (tests run on parallel threads).
// ---------------------------------------------------------------------------

struct PeakAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: defers every operation to `System` unchanged; the accounting
// touches only const-initialised, destructor-free thread-locals.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns the most heap it held at once beyond what was live
/// when it started.
fn peak_heap_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start) as usize)
}

/// Peak heap a `Value` decode of `input_len` bytes may hold. The densest
/// input is `[0,0,0,…`: each two bytes become a 32-byte `Value` in a `Vec`
/// that is just doubling.
fn tree_budget(input_len: usize) -> usize {
    64 * input_len + 16 * 1024
}

/// Peak heap a typed decode of `input_len` bytes may hold: the decoder
/// builds nothing but the result, whose integers are no larger than the
/// digits and separators they were written with.
fn typed_budget(input_len: usize) -> usize {
    8 * input_len + 16 * 1024
}

/// Feeds `bytes` to every decoder a trust boundary reaches and checks each
/// returns within its heap budget. Returning at all is the no-panic,
/// no-stack-overflow half of the property.
fn assert_decoders_contain(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let (tree, typed) = (tree_budget(bytes.len()), typed_budget(bytes.len()));
    let (_, peak) = peak_heap_during(|| serde_json::from_str::<Value>(&text).is_ok());
    assert!(peak <= tree, "Value: {peak} B for {} B", bytes.len());
    let (_, peak) = peak_heap_during(|| serde_json::from_str::<Finding>(&text).is_ok());
    assert!(peak <= typed, "Finding: {peak} B for {} B", bytes.len());
    let (_, peak) = peak_heap_during(|| serde_json::from_str::<CampaignCheckpoint>(&text).is_ok());
    assert!(peak <= typed, "checkpoint: {peak} B for {} B", bytes.len());
    let (_, peak) = peak_heap_during(|| {
        recv_frame(&mut &bytes[..]).map(|(kind, body)| decode::<CampaignCheckpoint>(&kind, &body))
    });
    assert!(
        peak <= typed,
        "recv_frame + decode: {peak} B for {} B",
        bytes.len()
    );
}

/// Feeds `bytes` to the daemon's HTTP boundary as `POST /hunts` would: the
/// request parser, then the hunt-spec decode of whatever body it yields.
fn assert_http_contained(bytes: &[u8]) {
    let (_, peak) = peak_heap_during(|| {
        read_request(&mut &bytes[..]).map(|(_, _, body)| serde_json::from_str::<HuntSpec>(&body))
    });
    let budget = typed_budget(bytes.len());
    assert!(
        peak <= budget,
        "POST /hunts: {peak} B for {} B",
        bytes.len()
    );
}

/// A well-formed `POST /hunts` request, as `ccfuzz submit` sends it.
fn valid_request() -> &'static [u8] {
    static REQUEST: OnceLock<Vec<u8>> = OnceLock::new();
    REQUEST.get_or_init(|| {
        let spec = HuntSpec {
            config: HuntConfig::quick(CcaKind::Bbr, FuzzMode::Workload, 3, 7),
            workers: 2,
            checkpoint_every: 1,
            panic_budget: Some(4),
        };
        let body = serde_json::to_string(&spec).unwrap();
        let request = format!(
            "POST /hunts HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (method, path, read) = read_request(&mut request.as_bytes()).unwrap();
        assert_eq!((method.as_str(), path.as_str()), ("POST", "/hunts"));
        assert_eq!(serde_json::from_str::<HuntSpec>(&read).unwrap(), spec);
        request.into_bytes()
    })
}

fn cases() -> ProptestConfig {
    let n = std::env::var("CCFUZZ_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    ProptestConfig::with_cases(n)
}

// ---------------------------------------------------------------------------
// Valid documents to corrupt
// ---------------------------------------------------------------------------

/// A committed finding file, a freshly written campaign checkpoint, and a
/// `report`-kind frame carrying the checkpoint as its body.
fn valid_documents() -> &'static [Vec<u8>; 3] {
    static DOCS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let finding = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/crates/corpus/fixtures/findings/reno-fairness-0909030f12.json"
        ))
        .unwrap();

        let dir = std::env::temp_dir().join(format!("ccfuzz-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::open_with(&dir, CorpusConfig::default()).unwrap();
        let mut config = HuntConfig::quick(CcaKind::Reno, FuzzMode::Traffic, 2, 21);
        config.ga.islands = 2;
        config.ga.population_per_island = 3;
        config.ga.threads = 1;
        config.duration = SimDuration::from_secs(1);
        let path = dir.join("ck.json");
        let control = HuntControl {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 1,
            ..HuntControl::default()
        };
        hunt_controlled(&corpus, &config, None, control).unwrap();
        let checkpoint = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let loaded: CampaignCheckpoint =
            serde_json::from_str(std::str::from_utf8(&checkpoint).unwrap()).unwrap();
        let mut frame = Vec::new();
        send_frame(&mut frame, REPORT, &loaded).unwrap();
        [finding, checkpoint, frame]
    })
}

#[test]
fn uncorrupted_and_densest_documents_decode_inside_the_heap_budget() {
    let [finding, checkpoint, frame] = valid_documents();
    serde_json::from_str::<Finding>(std::str::from_utf8(finding).unwrap()).unwrap();
    serde_json::from_str::<CampaignCheckpoint>(std::str::from_utf8(checkpoint).unwrap()).unwrap();
    let (kind, _) = recv_frame(&mut &frame[..]).unwrap();
    assert_eq!(kind, REPORT);
    for doc in valid_documents() {
        assert_decoders_contain(doc);
    }
    // The densest document, sized to sit just past a `Vec` doubling.
    assert_decoders_contain(format!("[{}0]", "0,".repeat(65_537)).as_bytes());
    assert_http_contained(valid_request());
}

// ---------------------------------------------------------------------------
// Random value trees
// ---------------------------------------------------------------------------

fn random_string(rng: &mut TestRng) -> String {
    const INTERESTING: [char; 10] = [
        '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '\u{2028}', '😀',
    ];
    (0..rng.gen_range_u64(0, 12))
        .map(|_| match rng.gen_range_u64(0, 3) {
            0 => INTERESTING[rng.gen_range_u64(0, INTERESTING.len() as u64) as usize],
            1 => char::from_u32(rng.gen_range_u64(0, 0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => (b' ' + rng.gen_range_u64(0, 95) as u8) as char,
        })
        .collect()
}

/// A value the writers render unambiguously: floats are never integral
/// below 2^64 (those are written as, and read back as, integers) and never
/// non-finite (written as `null`); `I64` holds only negatives, as the
/// integer `Serialize` impls produce.
fn random_value(rng: &mut TestRng, depth: u32) -> Value {
    let leaf_only = depth == 0;
    match rng.gen_range_u64(0, if leaf_only { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::U64(rng.next_u64() >> rng.gen_range_u64(0, 64)),
        3 => Value::I64(-1 - (rng.next_u64() >> rng.gen_range_u64(1, 64)) as i64),
        4 => {
            let magnitude = [1e-300, 1e-9, 1.0, 1e6, 1e15, 1e25, 1e300];
            let scale = magnitude[rng.gen_range_u64(0, magnitude.len() as u64) as usize];
            let x = (rng.next_f64() - 0.5) * scale;
            Value::F64(if x.fract() == 0.0 && x.abs() < 2e19 {
                x + 0.5
            } else {
                x
            })
        }
        5 => Value::Str(random_string(rng)),
        6 => Value::Seq(
            (0..rng.gen_range_u64(0, 5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.gen_range_u64(0, 5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn arbitrary_bytes_never_panic_or_balloon(raw in collection::vec(0u16..768, 0..600)) {
        // Two thirds JSON punctuation, so the parser gets past byte zero;
        // one third arbitrary bytes, invalid UTF-8 included.
        const JSON: &[u8] = b"[]{}:,\"\\u0123456789.eE+- \ntruefalsn";
        let bytes: Vec<u8> = raw
            .iter()
            .map(|&v| if v < 256 { v as u8 } else { JSON[v as usize % JSON.len()] })
            .collect();
        assert_decoders_contain(&bytes);
    }

    #[test]
    fn corrupted_valid_documents_never_panic_or_balloon(
        which in 0usize..3,
        at in 0.0f64..1.0,
        truncate in any::<bool>(),
        flip in 1u8..255,
    ) {
        let mut bytes = valid_documents()[which].clone();
        let offset = (at * bytes.len() as f64) as usize;
        if truncate {
            bytes.truncate(offset);
        } else {
            bytes[offset] ^= flip;
        }
        assert_decoders_contain(&bytes);
    }

    #[test]
    fn arbitrary_http_requests_never_panic_or_balloon(
        raw in collection::vec(0u16..768, 0..600),
        with_head in any::<bool>(),
    ) {
        // Two thirds HTTP and JSON punctuation, one third arbitrary bytes;
        // half the cases start with a plausible request head.
        const HTTP: &[u8] = b"POST /hunts HTTP/1.1\r\nContent-Length: 0123456789{}[]:,\"\r\n\r\n";
        let mut bytes = if with_head {
            b"POST /hunts HTTP/1.1\r\nContent-Length: 40\r\n\r\n".to_vec()
        } else {
            Vec::new()
        };
        bytes.extend(raw.iter().map(|&v| if v < 256 { v as u8 } else { HTTP[v as usize % HTTP.len()] }));
        assert_http_contained(&bytes);
    }

    #[test]
    fn corrupted_http_requests_never_panic_or_balloon(
        at in 0.0f64..1.0,
        truncate in any::<bool>(),
        flip in 1u8..255,
    ) {
        let mut bytes = valid_request().to_vec();
        let offset = (at * bytes.len() as f64) as usize;
        if truncate {
            bytes.truncate(offset);
        } else {
            bytes[offset] ^= flip;
        }
        assert_http_contained(&bytes);
    }

    #[test]
    fn value_trees_round_trip_through_both_writers(seed in any::<u64>()) {
        let value = random_value(&mut TestRng::new(seed), 4);
        let compact = serde_json::to_string(&value).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&compact).unwrap(), &value, "{}", compact);
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).unwrap(), &value, "{}", pretty);
    }
}

// ---------------------------------------------------------------------------
// Pinned parser regressions
// ---------------------------------------------------------------------------

/// The parser used to re-validate the whole remaining document as UTF-8 for
/// every character of every string and key — quadratic. At the parent commit
/// a release build took 80 s on 2.5 MB of this shape.
#[test]
fn a_two_megabyte_string_heavy_document_parses_in_seconds() {
    let record = r#"{"identifier":"reno-traffic-0303000e0d","note":"héllo \"wörld\" é\n","n":12}"#;
    let count = 2 * 1024 * 1024 / record.len() + 1;
    let doc = format!("[{}]", vec![record; count].join(","));
    assert!(doc.len() >= 2 * 1024 * 1024);
    let started = Instant::now();
    let value: Value = serde_json::from_str(&doc).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(value.as_seq("doc").unwrap().len(), count);
    assert!(elapsed.as_secs_f64() < 5.0, "parse took {elapsed:?}");
}

/// Nesting is capped: hostile depth is an `Err`, not a stack overflow (which
/// aborts the process and so escapes every `catch_unwind`).
#[test]
fn nesting_beyond_the_cap_is_an_error_not_a_stack_overflow() {
    for unit in ["[", r#"{"a":"#] {
        let err = serde_json::from_str::<Value>(&unit.repeat(100_000)).unwrap_err();
        assert!(err.0.contains("nesting"), "{err}");
        assert!(serde_json::from_str::<Finding>(&unit.repeat(100_000)).is_err());
    }
    let mut framed = (100_000u32).to_be_bytes().to_vec();
    framed.extend(std::iter::repeat_n(b'[', 100_000));
    assert!(recv_frame(&mut &framed[..]).is_err());

    let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    assert!(serde_json::from_str::<Value>(&deep_ok).is_ok());
    let deep_ok = format!("{}1{}", r#"{"a":"#.repeat(100), "}".repeat(100));
    assert!(serde_json::from_str::<Value>(&deep_ok).is_ok());
    let at_cap = serde_json::MAX_DEPTH;
    let doc = format!("{}{}", "[".repeat(at_cap), "]".repeat(at_cap));
    assert!(serde_json::from_str::<Value>(&doc).is_ok());
    let doc = format!("{}{}", "[".repeat(at_cap + 1), "]".repeat(at_cap + 1));
    assert!(serde_json::from_str::<Value>(&doc).is_err());
}

/// A frame header is four untrusted bytes: claiming the largest payload and
/// sending none must fail the way a dead peer does, without reserving the
/// claimed length first.
#[test]
fn a_lying_length_prefix_is_unexpected_eof_and_reserves_nothing() {
    let header = (MAX_FRAME_BYTES as u32).to_be_bytes();
    let (result, peak) = peak_heap_during(|| recv_frame(&mut &header[..]));
    assert_eq!(
        result.unwrap_err().kind(),
        std::io::ErrorKind::UnexpectedEof
    );
    assert!(peak <= typed_budget(header.len()), "{peak} B reserved");
}
