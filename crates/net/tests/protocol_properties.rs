//! Wire-protocol properties, mirroring the `GPHE` snapshot corruption
//! proptests: arbitrary request/response frames round-trip byte-exactly
//! through encode → decode → re-encode, and **every** single-byte
//! corruption or truncation of a frame is rejected as a protocol error
//! (never a panic, never a silently-wrong decode).

use gph_net::protocol::{
    decode_frame, encode_request, encode_response, frame_crc, read_frame, FrameReader, Message,
    NodeHealth, Request, Response, SearchEntry, WireError, WireMutation, HEADER_LEN,
};
use gph_net::NetError;
use proptest::prelude::*;

fn words(max: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..=max)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    let batch = (1usize..=4, 1usize..=4)
        .prop_flat_map(|(n, w)| prop::collection::vec(prop::collection::vec(any::<u64>(), w), n));
    ((0u8..11, any::<u32>(), any::<u32>()), words(5), batch).prop_map(|((tag, a, b), q, qs)| {
        match tag {
            0 => Request::Ping,
            1 => Request::Search { tau: a, query: q },
            2 => Request::TopK { k: a, query: q },
            3 => Request::BatchSearch { tau: a, queries: qs },
            4 => Request::Insert { id: b, row: q },
            5 => Request::Delete { id: b },
            6 => Request::Upsert { id: b, row: q },
            7 => Request::Metrics,
            8 => {
                Request::TracedSearch { tau: a, query: q, trace_id: ((a as u64) << 32) | b as u64 }
            }
            9 => Request::Health,
            _ => Request::SlowQueries { max: a },
        }
    })
}

fn entry_strategy() -> impl Strategy<Value = SearchEntry> {
    (
        (0u8..3, any::<bool>(), any::<bool>()),
        (any::<u32>(), any::<u32>()),
        prop::collection::vec(any::<u32>(), 0..6),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(|((tag, from_cache, degraded), (tau, from), ids, (c, bgt))| match tag {
            0 => SearchEntry::Ids { ids, tau, degraded_from: degraded.then_some(from), from_cache },
            1 => SearchEntry::Rejected { estimated_cost: c as f64 / 8.0, budget: bgt as f64 / 8.0 },
            _ => SearchEntry::Overloaded,
        })
}

/// Deterministic query trace from one seed, exercising multiple shards,
/// segments, and the memtable sentinel.
fn trace_from_seed(seed: u64) -> gph_obs::QueryTrace {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        x >> 17
    };
    let mut shards = Vec::new();
    for shard in 0..(seed % 3) as u32 {
        let mut segments = Vec::new();
        for segment in 0..(next() % 3) as u32 {
            segments.push(gph_obs::SegmentTrace {
                segment: if segment == 2 { gph_obs::trace::MEMTABLE_SEGMENT } else { segment },
                rows: next(),
                phases: gph_obs::PhaseNanos {
                    alloc_ns: next(),
                    enumerate_ns: next(),
                    probe_ns: next(),
                    verify_ns: next(),
                    scan_ns: next(),
                },
                n_signatures: next(),
                sum_postings: next(),
                n_scanned: next(),
                n_candidates: next(),
                n_results: next(),
            });
        }
        shards.push(gph_obs::ShardTrace { shard, total_ns: next(), segments });
    }
    gph_obs::QueryTrace {
        trace_id: next(),
        node: if seed.is_multiple_of(3) {
            String::new()
        } else {
            format!("10.0.0.{}:9000", seed % 250)
        },
        started_unix_ns: next(),
        tau: (seed % 31) as u32,
        total_ns: next(),
        shards,
    }
}

/// Deterministic fleet-observability payloads from one seed.
fn health_from_seed(seed: u64) -> NodeHealth {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        x >> 17
    };
    NodeHealth {
        slots: (0..(seed % 4) as u32).map(|_| next() as u32).collect(),
        generation: next(),
        rows: next(),
        dim: next() as u32,
        tau_max: next() as u32,
        queue_depth: next() as u32,
        queue_capacity: next() as u32,
        degraded: seed.is_multiple_of(2),
    }
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        (0u8..10, any::<u64>(), any::<bool>(), any::<bool>()),
        entry_strategy(),
        prop::collection::vec(entry_strategy(), 0..4),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..6),
        (any::<u32>(), any::<u32>(), 0u8..6),
    )
        .prop_map(|((tag, seed, flag_a, flag_b), entry, entries, hits, (a, b, err_tag))| {
            match tag {
                0 => Response::Pong,
                1 => Response::Search(entry),
                2 => Response::TopK { hits, degraded_cap: flag_a.then_some(a), from_cache: flag_b },
                3 => Response::Batch(entries),
                4 => Response::Mutation(if flag_a {
                    WireMutation::Applied { replaced: flag_b }
                } else {
                    WireMutation::NotFound
                }),
                5 => Response::Metrics {
                    text: format!("# HELP gph_x_{a} X.\n# TYPE gph_x_{a} counter\ngph_x_{a} {b}\n"),
                },
                6 => Response::TracedSearch { entry, trace: flag_a.then(|| trace_from_seed(seed)) },
                7 => Response::Health(health_from_seed(seed)),
                8 => Response::SlowQueries {
                    traces: (0..seed % 3).map(|i| trace_from_seed(seed ^ i)).collect(),
                },
                _ => Response::Error(match err_tag {
                    0 => WireError::Malformed(format!("m{a}")),
                    1 => WireError::Unsupported(format!("u{b}")),
                    2 => WireError::Rejected {
                        estimated_cost: a as f64 / 4.0,
                        budget: b as f64 / 4.0,
                    },
                    3 => WireError::Overloaded,
                    4 => WireError::Engine(format!("e{a}")),
                    _ => WireError::ShuttingDown,
                }),
            }
        })
}

/// Encodes the message under `id`, regardless of direction.
fn encode_message(id: u64, msg: &Message) -> Vec<u8> {
    match msg {
        Message::Request(req) => encode_request(id, req),
        Message::Response(resp) => encode_response(id, resp),
    }
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (any::<bool>(), request_strategy(), response_strategy()).prop_map(|(is_req, req, resp)| {
        if is_req {
            Message::Request(req)
        } else {
            Message::Response(resp)
        }
    })
}

fn stream_strategy() -> impl Strategy<Value = Vec<(u64, Message)>> {
    prop::collection::vec((any::<u64>(), message_strategy()), 1..=16)
}

/// Pushes `stream` into a [`FrameReader`] in pieces of 1 to `max_piece`
/// bytes (sizes drawn from `seed`), popping after every piece, and
/// returns every frame popped plus the first error — from a pop, or from
/// the end-of-stream check. Nothing may pop after the error.
fn pop_in_pieces(
    stream: &[u8],
    max_piece: usize,
    seed: u64,
) -> (Vec<(u64, Message, usize)>, Option<NetError>) {
    let mut reader = FrameReader::default();
    let (mut popped, mut error) = (Vec::new(), None);
    let (mut x, mut at) = (seed, 0);
    while at < stream.len() {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let end = stream.len().min(at + 1 + (x >> 33) as usize % max_piece);
        reader.push(&stream[at..end]);
        at = end;
        loop {
            match reader.pop() {
                Ok(Some(frame)) => {
                    assert!(error.is_none(), "{frame:?} popped after {error:?}");
                    popped.push(frame);
                }
                Ok(None) => break,
                Err(e) => {
                    assert!(error.is_none(), "{e:?} after {error:?}");
                    error = Some(e);
                }
            }
        }
    }
    (popped, error.or(reader.finish().err()))
}

/// Opcodes `0x08` and `0x0E` carried the retired `Stats` and
/// `AggregateMetrics` ops: a well-formed, correctly checksummed frame
/// naming either is a protocol error in either direction, like any
/// opcode this build does not know.
#[test]
fn retired_opcodes_are_protocol_errors() {
    for opcode in [0x08u8, 0x0E] {
        for mut frame in [encode_request(7, &Request::Ping), encode_response(7, &Response::Pong)] {
            frame[6] = opcode;
            let crc = frame_crc(&frame[4..20], &frame[HEADER_LEN..]);
            frame[20..24].copy_from_slice(&crc.to_le_bytes());
            match decode_frame(&frame) {
                Err(NetError::Protocol(msg)) => {
                    assert!(msg.contains(&format!("opcode {opcode:#04x}")), "{msg}")
                }
                other => panic!("expected a protocol error for {opcode:#04x}, got {other:?}"),
            }
            assert!(matches!(read_frame(&mut &frame[..]), Err(NetError::Protocol(_))));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → re-encode is the identity on bytes, and decode
    /// recovers the exact message and request id.
    #[test]
    fn frames_roundtrip_byte_exactly(id in any::<u64>(), msg in message_strategy()) {
        let bytes = encode_message(id, &msg);
        let (got_id, got_msg) = decode_frame(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(&got_msg, &msg);
        prop_assert_eq!(encode_message(got_id, &got_msg), bytes);
        // The streaming reader agrees with the buffer decoder.
        let mut stream: &[u8] = &bytes;
        let (sid, smsg, n) = read_frame(&mut stream).expect("stream decode").expect("one frame");
        prop_assert_eq!(sid, id);
        prop_assert_eq!(smsg, msg);
        prop_assert_eq!(n, bytes.len());
        prop_assert!(read_frame(&mut stream).expect("clean EOF").is_none());
    }

    /// Flipping any single byte anywhere in a frame is detected.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        id in any::<u64>(),
        msg in message_strategy(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_message(id, &msg);
        let i = at.index(bytes.len());
        bytes[i] ^= xor;
        prop_assert!(decode_frame(&bytes).is_err(), "flip at byte {} went undetected", i);
        let mut stream: &[u8] = &bytes;
        prop_assert!(read_frame(&mut stream).is_err(), "stream flip at byte {} undetected", i);
    }

    /// Truncating a frame at any length is detected.
    #[test]
    fn any_truncation_is_rejected(
        id in any::<u64>(),
        msg in message_strategy(),
        at in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_message(id, &msg);
        let cut = at.index(bytes.len()); // 0..len, never the full frame
        prop_assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {} went undetected", cut);
        // The streaming reader treats a zero-byte stream as clean EOF
        // (that is a frame *boundary*); any partial frame is an error.
        if cut > 0 {
            let mut stream: &[u8] = &bytes[..cut];
            prop_assert!(read_frame(&mut stream).is_err(), "stream cut at {} undetected", cut);
        }
    }

    /// Appending trailing garbage to a frame is detected by the
    /// exactly-one-frame decoder.
    #[test]
    fn trailing_bytes_are_rejected(
        id in any::<u64>(),
        msg in message_strategy(),
        extra in 1usize..16,
    ) {
        let mut bytes = encode_message(id, &msg);
        bytes.extend(std::iter::repeat_n(0xA5, extra));
        prop_assert!(decode_frame(&bytes).is_err());
    }

    /// However a stream of whole frames is cut into pieces — one byte at
    /// a time up to all at once — the incremental reader pops exactly
    /// `decode_frame` of each frame, in order, and their wire lengths add
    /// up to the stream.
    #[test]
    fn a_frame_reader_pops_every_frame_however_the_stream_is_cut(
        frames in stream_strategy(),
        max_piece in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let encoded: Vec<Vec<u8>> = frames.iter().map(|(id, msg)| encode_message(*id, msg)).collect();
        let stream = encoded.concat();
        let (popped, error) = pop_in_pieces(&stream, max_piece.index(stream.len()) + 1, seed);
        prop_assert!(error.is_none(), "{:?}", error);
        prop_assert_eq!(popped.len(), encoded.len());
        for ((id, msg, len), bytes) in popped.iter().zip(&encoded) {
            let (want_id, want_msg) = decode_frame(bytes).expect("a whole frame");
            prop_assert_eq!((*id, msg, *len), (want_id, &want_msg, bytes.len()));
        }
        prop_assert_eq!(popped.iter().map(|frame| frame.2).sum::<usize>(), stream.len());
    }

    /// One flipped byte, or a cut inside a frame: the reader pops the
    /// frames that were whole before the damage, then one protocol error,
    /// and nothing after it.
    #[test]
    fn a_frame_reader_stops_at_the_first_damage(
        frames in stream_strategy(),
        max_piece in any::<prop::sample::Index>(),
        seed in any::<u64>(),
        at in any::<prop::sample::Index>(),
        xor in 0u8..=255,
    ) {
        let encoded: Vec<Vec<u8>> = frames.iter().map(|(id, msg)| encode_message(*id, msg)).collect();
        let mut stream = encoded.concat();
        let starts: Vec<usize> = encoded.iter().scan(0, |end, frame| {
            *end += frame.len();
            Some(*end - frame.len())
        }).collect();
        let mut pos = at.index(stream.len());
        if xor == 0 {
            // A cut on a frame boundary leaves whole frames: move it inside.
            if starts.contains(&pos) {
                pos += 1;
            }
            stream.truncate(pos);
        } else {
            stream[pos] ^= xor;
        }
        let whole = starts.partition_point(|&start| start <= pos) - 1;
        let (popped, error) = pop_in_pieces(&stream, max_piece.index(stream.len()) + 1, seed);
        prop_assert!(matches!(error, Some(NetError::Protocol(_))), "got {:?}", error);
        prop_assert_eq!(popped.len(), whole, "frames popped before damage in frame {}", whole);
        for ((id, msg, _), bytes) in popped.iter().zip(&encoded) {
            let (want_id, want_msg) = decode_frame(bytes).expect("a whole frame");
            prop_assert_eq!((*id, msg), (want_id, &want_msg));
        }
    }
}
