//! Property tests of the wire protocol: arbitrary frames round-trip,
//! and arbitrary garbage is rejected without panicking.

use kiss_core::checker::Engine;
use kiss_obs::TraceId;
use kiss_serve::protocol::{
    decode_request, decode_response, CacheStatus, FrameError, Op, Request, Response,
    MAX_FRAME_BYTES,
};
use proptest::prelude::*;
use proptest::BoxedStrategy;

fn opt_u64() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (0u64..1_000_000).prop_map(Some)]
}

/// Arbitrary requests: printable-unicode ids/sources/targets (quotes,
/// backslashes, and multi-byte characters included), every engine,
/// and each budget override present or absent.
fn request_strategy() -> BoxedStrategy<Request> {
    (
        ("\\PC*", "\\PC*", prop_oneof![Just(None), "\\PC*".prop_map(Some)]),
        (
            prop::sample::select(vec![Engine::Explicit, Engine::Summary, Engine::Bfs]),
            0usize..4,
        ),
        (opt_u64(), opt_u64(), opt_u64(), any::<bool>()),
        prop_oneof![Just(TraceId::NONE), (1u64..u64::MAX).prop_map(TraceId)],
    )
        .prop_map(
            |(
                (id, source, target),
                (engine, max_ts),
                (max_steps, max_states, timeout_ms, no_cache),
                trace,
            )| {
                Request {
                    id,
                    op: match target {
                        Some(target) => Op::Race { target },
                        None => Op::Check,
                    },
                    source,
                    engine,
                    max_ts,
                    max_steps,
                    max_states,
                    timeout_ms,
                    no_cache,
                    trace,
                }
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn request_frames_round_trip(request in request_strategy()) {
        let line = request.to_json();
        prop_assert!(!line.contains('\n'), "frames must be one line: {line}");
        prop_assert_eq!(decode_request(&line), Ok(request));
    }

    #[test]
    fn equal_round_tripped_requests_keep_their_cache_key(request in request_strategy()) {
        let decoded = decode_request(&request.to_json()).unwrap();
        prop_assert_eq!(decoded.cache_key(), request.cache_key());
    }

    #[test]
    fn response_frames_round_trip(
        (id, verdict, detail) in ("\\PC*", "\\PC*", "\\PC*"),
        (steps, states) in (0u64..1_000_000, 0u64..1_000_000),
        cache in prop::sample::select(vec![CacheStatus::Hit, CacheStatus::Miss, CacheStatus::None]),
    ) {
        let response = Response { id, verdict, detail, steps, states, cache };
        let line = response.to_json();
        prop_assert!(!line.contains('\n'), "frames must be one line: {line}");
        prop_assert_eq!(decode_response(&line), Ok(response));
    }

    #[test]
    fn garbage_lines_are_rejected_not_panicked(line in "\\PC*") {
        // Printable garbage is overwhelmingly not a valid frame; either
        // way the decoder must return, never panic.
        if let Err(e) = decode_request(&line) {
            prop_assert!(!e.message().is_empty());
        }
        let _ = decode_response(&line);
    }

    #[test]
    fn truncated_valid_frames_never_panic(request in request_strategy(), cut in any::<prop::sample::Index>()) {
        let line = request.to_json();
        let mut at = cut.index(line.len());
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let _ = decode_request(&line[..at]);
    }
}

#[test]
fn oversized_frames_are_rejected_on_both_sides() {
    let mut request = Request::check("big", "x");
    request.source = "void main() { skip; } ".repeat(MAX_FRAME_BYTES / 20);
    let line = request.to_json();
    assert!(line.len() > MAX_FRAME_BYTES);
    assert!(matches!(decode_request(&line), Err(FrameError::Oversized { .. })));
    assert!(matches!(decode_response(&line), Err(FrameError::Oversized { .. })));
}
