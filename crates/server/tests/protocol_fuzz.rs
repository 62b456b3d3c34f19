//! Byte-mutation fuzzer for `parse_request`, the daemon's parser of
//! untrusted request frames.
//!
//! Valid frames of every verb are mutated byte by byte (flips, inserted
//! and deleted bytes, JSON punctuation, repeated spans) and decoded the
//! way the server reads a line. Every mutated frame must come back as a
//! valid request or a structured error, never a panic, and the parse may
//! hold no more heap than a fixed multiple of the frame's length: no
//! number inside a frame can make the parser allocate more.

use pim_server::{error_response, parse_request, ErrorCode, Request};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's live heap bytes and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get().wrapping_add(delta));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap a parse may hold per frame byte. No value tree is built: the
/// largest thing a frame holds is its edge list, 8 bytes of `Vec<Edge>`
/// per at least 6 frame bytes (`[0,0],`), which doubling growth keeps
/// under 3 bytes per frame byte; strings cost at most 2.
const HEAP_PER_FRAME_BYTE: usize = 8;
/// Fixed heap allowance (error messages, small vectors' first growth).
const HEAP_SLACK: usize = 4096;

/// Parses `frame` and returns the result with the peak heap the parse
/// held above what was live before it.
fn parse_metered(frame: &str) -> (Result<Request, (ErrorCode, String)>, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let parsed = parse_request(frame);
    let peak = PEAK.with(Cell::get) - base;
    (parsed, peak.max(0) as usize)
}

/// Checks the parser's contract on one frame.
fn check(frame: &str) {
    let (parsed, peak) = parse_metered(frame);
    let bound = HEAP_PER_FRAME_BYTE * frame.len() + HEAP_SLACK;
    prop_assert!(
        peak <= bound,
        "parse held {peak} B for a {}-byte frame",
        frame.len()
    );
    match parsed {
        Ok(Request::AppendEdges { edges, .. }) => {
            // Each edge takes at least `[0,0]` on the wire.
            prop_assert!(edges.len() * 5 <= frame.len());
        }
        Ok(Request::CreateSession(spec)) => prop_assert!(spec.colors >= 1),
        Ok(_) => {}
        Err((code, message)) => {
            prop_assert!(matches!(code, ErrorCode::BadRequest | ErrorCode::UnknownOp));
            prop_assert!(!message.is_empty());
            let rendered: serde_json::Value =
                serde_json::from_str(&error_response(code, &message)).unwrap();
            prop_assert_eq!(
                rendered.get("ok").and_then(serde_json::Value::as_bool),
                Some(false)
            );
        }
    }
}

/// One valid frame per verb, with every optional field present once.
const SEEDS: &[&str] = &[
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"shutdown"}"#,
    r#"{"op":"create-session","colors":3,"seed":7,"uniform_p":0.5,"capacity":512,"misra_gries":[64,16],"ranks":2,"spares":1,"journal":true,"backend":"functional","faults":"seed=3,kill=1@4"}"#,
    r#"{"op":"append-edges","session":4,"edges":[[1,2],[3,4],[5,6],[4294967295,0]]}"#,
    r#"{"op":"query-count","session":9}"#,
    r#"{"op":"checkpoint","session":9,"dir":"/tmp/xé\n"}"#,
    r#"{"op":"close","session":1}"#,
];

/// Bytes that steer a mutation into the JSON grammar's corners.
const PUNCT: &[u8] = b"{}[]\":,\\-+.eE0189utfnl \n\x00\xff\xc3";

#[derive(Clone, Debug)]
enum Mutation {
    Flip(usize, u8),
    Set(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    /// Repeats the span starting at `.0` of length `.1`, `.2` times.
    Repeat(usize, usize, usize),
}

/// Any byte, or one of [`PUNCT`].
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), (0..PUNCT.len()).prop_map(|i| PUNCT[i])]
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1..=255u8).prop_map(|(i, m)| Mutation::Flip(i, m)),
        (any::<usize>(), byte()).prop_map(|(i, b)| Mutation::Set(i, b)),
        (any::<usize>(), byte()).prop_map(|(i, b)| Mutation::Insert(i, b)),
        any::<usize>().prop_map(Mutation::Delete),
        (any::<usize>(), 1..8usize, 1..64usize).prop_map(|(i, n, k)| Mutation::Repeat(i, n, k)),
    ]
}

fn apply(frame: &mut Vec<u8>, m: &Mutation) {
    let at = |i: usize, len: usize| if len == 0 { 0 } else { i % len };
    match *m {
        Mutation::Flip(i, mask) if !frame.is_empty() => {
            let i = at(i, frame.len());
            frame[i] ^= mask;
        }
        Mutation::Set(i, b) if !frame.is_empty() => {
            let i = at(i, frame.len());
            frame[i] = b;
        }
        Mutation::Insert(i, b) => {
            let i = at(i, frame.len() + 1);
            frame.insert(i, b);
        }
        Mutation::Delete(i) if !frame.is_empty() => {
            let i = at(i, frame.len());
            frame.remove(i);
        }
        Mutation::Repeat(i, n, k) if !frame.is_empty() => {
            let i = at(i, frame.len());
            let span = frame[i..(i + n).min(frame.len())].to_vec();
            for _ in 0..k {
                frame.splice(i..i, span.iter().copied());
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_frames_parse_or_error_within_the_frames_heap(
        seed in 0..SEEDS.len(),
        mutations in prop::collection::vec(mutation(), 1..8),
    ) {
        let mut frame = SEEDS[seed].as_bytes().to_vec();
        for m in &mutations {
            apply(&mut frame, m);
        }
        // The server hands the parser UTF-8 lines; lossy decoding keeps
        // every mutated frame in play.
        check(&String::from_utf8_lossy(&frame));
    }
}

#[test]
fn every_seed_parses() {
    for seed in SEEDS {
        assert!(parse_request(seed).is_ok(), "{seed}");
        check(seed);
    }
}

/// Frames filling the frame cap: the edge list is read straight into its
/// vector, and a member no verb reads is skipped without being built.
#[test]
fn frame_cap_sized_frames_stay_within_the_bound() {
    let pairs = (pim_server::DEFAULT_MAX_FRAME - 64) / 6;
    let edges = vec!["[0,0]"; pairs].join(",");
    let frame = format!("{{\"op\":\"append-edges\",\"session\":1,\"edges\":[{edges}]}}");
    assert!(frame.len() < pim_server::DEFAULT_MAX_FRAME);
    check(&frame);
    match parse_request(&frame).unwrap() {
        Request::AppendEdges { edges, .. } => assert_eq!(edges.len(), pairs),
        other => panic!("parsed {other:?}"),
    }

    let singles = vec!["[0]"; (pim_server::DEFAULT_MAX_FRAME - 64) / 4].join(",");
    let frame = format!("{{\"op\":\"ping\",\"pad\":[{singles}]}}");
    assert!(frame.len() < pim_server::DEFAULT_MAX_FRAME);
    check(&frame);
    assert_eq!(parse_request(&frame).unwrap(), Request::Ping);
}

/// Members read as a value tree's `get` would see them: a member of the
/// wrong shape is reported only by a verb that reads it, and the first
/// occurrence of a key wins.
#[test]
fn members_read_as_a_value_tree_would_see_them() {
    for (frame, want) in [
        (r#"{"op":"ping","edges":5}"#, Ok(Request::Ping)),
        (r#"{"op":"ping","op":"warp"}"#, Ok(Request::Ping)),
        (
            r#"{"op":"close","session":[1],"session":2}"#,
            Err(ErrorCode::BadRequest),
        ),
        (
            r#"{"op":"append-edges","session":1,"edges":5,"edges":[[1,2]]}"#,
            Err(ErrorCode::BadRequest),
        ),
    ] {
        check(frame);
        assert_eq!(
            parse_request(frame).map_err(|(code, _)| code),
            want,
            "{frame}"
        );
    }
}

/// Regression: the parser recursed once per nesting level, so a frame of
/// nested arrays within the frame cap overflowed the connection thread's
/// stack and aborted the daemon.
#[test]
fn deeply_nested_frame_is_a_structured_error() {
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        let depth = pim_server::DEFAULT_MAX_FRAME / 8;
        let frame = format!(
            "{{\"op\":\"append-edges\",\"session\":1,\"edges\":{}{}}}",
            open.repeat(depth),
            close.repeat(depth)
        );
        let (parsed, _) = parse_metered(&frame);
        let (code, message) = parsed.unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest, "{message}");
        check(&frame);
    }
}

/// Regression: each character of a string re-validated the rest of the
/// frame as UTF-8, so one string filling the frame cap took time
/// quadratic in its length (minutes for 1 MiB).
#[test]
fn a_frame_long_string_parses_in_linear_time() {
    let long = "é".repeat(pim_server::DEFAULT_MAX_FRAME / 4);
    let frame = format!("{{\"op\":\"checkpoint\",\"session\":2,\"dir\":\"{long}\"}}");
    let start = std::time::Instant::now();
    check(&frame);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "took {:?}",
        start.elapsed()
    );
    match parse_request(&frame).unwrap() {
        Request::Checkpoint { dir, .. } => assert_eq!(dir.as_deref(), Some(long.as_str())),
        other => panic!("parsed {other:?}"),
    }
}
