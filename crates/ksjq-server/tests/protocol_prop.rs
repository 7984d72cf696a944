//! Property tests for the distribution frames (`SYNC`/`STAGE`/`COMMIT`/
//! `ABORT`/`FETCH`/`CHECK` and their responses): random well-formed
//! frames must survive a `Display` → `parse` round trip bit-exactly, and
//! random junk must be rejected without a panic.

use ksjq_join::AggFunc;
use ksjq_server::{LegSet, Request, Response};
use proptest::prelude::*;

/// A valid relation-name token from a packed random value.
fn name(tag: char, v: u64) -> String {
    format!("{tag}{v:x}")
}

/// A dyadic-rational `f64` — exactly representable, so `Display` and
/// `parse` are lossless by construction.
fn dyadic(mantissa: i32, shift: u8) -> f64 {
    f64::from(mantissa) / f64::from(1u32 << (shift % 16))
}

fn agg(code: u8) -> AggFunc {
    match code % 5 {
        0 => AggFunc::Sum,
        1 => AggFunc::Min,
        2 => AggFunc::Max,
        // Positive dyadic weights: always pass AggFunc::validate.
        n => AggFunc::WeightedSum {
            left: f64::from((code % 16) + 1) / 16.0,
            right: f64::from(n) / 4.0,
        },
    }
}

/// The characters leg sections are made of, plus a few that do not
/// belong there.
const LEG_ALPHABET: [char; 28] = [
    'L', 'R', 'P', ' ', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ':', ';', ',', '.', '-',
    '+', 'e', 'E', 'i', 'n', 'f', 'N', 'a', '\u{fffd}',
];

/// Dyadic legs from packed random cells.
fn legs_of(cells: Vec<Vec<(i32, u8)>>) -> Vec<Vec<f64>> {
    cells
        .into_iter()
        .map(|leg| leg.into_iter().map(|(m, s)| dyadic(m, s)).collect())
        .collect()
}

/// A leg set whose pair indices (packed random values) stay in range.
fn leg_set(
    left: Vec<Vec<(i32, u8)>>,
    right: Vec<Vec<(i32, u8)>>,
    pairs: Vec<(u32, u32)>,
) -> LegSet {
    let (left, right) = (legs_of(left), legs_of(right));
    let pairs = if left.is_empty() || right.is_empty() {
        Vec::new()
    } else {
        pairs
            .into_iter()
            .map(|(i, j)| (i % left.len() as u32, j % right.len() as u32))
            .collect()
    };
    LegSet { left, right, pairs }
}

fn roundtrip_request(frame: &Request) -> Request {
    let wire = frame.to_string();
    Request::parse(&wire).unwrap_or_else(|e| panic!("rejected own frame {wire:?}: {e}"))
}

fn roundtrip_response(frame: &Response) -> Response {
    let wire = frame.to_string();
    Response::parse(&wire).unwrap_or_else(|e| panic!("rejected own frame {wire:?}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn catalog_control_frames_roundtrip(v in 0u64..1 << 48, which in 0u8..4) {
        let n = name('r', v);
        let frame = match which {
            0 => Request::Sync { name: None },
            1 => Request::Sync { name: Some(n) },
            2 => Request::Commit { name: n },
            _ => Request::Abort { name: n },
        };
        prop_assert_eq!(roundtrip_request(&frame), frame);
    }

    #[test]
    fn stage_frames_roundtrip(
        v in 0u64..1 << 48,
        cells in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..8),
    ) {
        // CSV body: newline row separators, no trailing whitespace —
        // the canonical form the wire encoding (';' rows) maps back to.
        let rows: Vec<String> = cells.iter().map(|(a, b)| format!("{a},{b}")).collect();
        let frame = Request::Stage {
            name: name('s', v),
            csv: format!("key,cost\n{}", rows.join("\n")),
        };
        prop_assert_eq!(roundtrip_request(&frame), frame);
    }

    #[test]
    fn fetch_frames_roundtrip(
        v in 0u64..1 << 48,
        aggs in prop::collection::vec(0u8..=255, 0..4),
        pairs in prop::collection::vec((0u32..100_000, 0u32..100_000), 1..40),
    ) {
        let frame = Request::Fetch {
            left: name('l', v),
            right: name('r', v ^ 1),
            aggs: aggs.into_iter().map(agg).collect(),
            pairs,
        };
        prop_assert_eq!(roundtrip_request(&frame), frame);
    }

    #[test]
    fn check_frames_roundtrip(
        v in 0u64..1 << 48,
        k in 1usize..64,
        aggs in prop::collection::vec(0u8..=255, 0..4),
        left in prop::collection::vec(
            prop::collection::vec((-4096i32..4096, 0u8..16), 1..7),
            0..12,
        ),
        right in prop::collection::vec(
            prop::collection::vec((-4096i32..4096, 0u8..16), 1..7),
            0..12,
        ),
        pairs in prop::collection::vec((0u32..1000, 0u32..1000), 0..30),
    ) {
        let frame = Request::Check {
            left: name('l', v),
            right: name('r', v ^ 1),
            aggs: aggs.into_iter().map(agg).collect(),
            k,
            legs: leg_set(left, right, pairs),
        };
        prop_assert_eq!(roundtrip_request(&frame), frame);
    }

    #[test]
    fn distribution_responses_roundtrip(
        v in 0u64..1 << 48,
        names in prop::collection::vec(0u64..1 << 40, 0..6),
        cells in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..8),
        left in prop::collection::vec(
            prop::collection::vec((-4096i32..4096, 0u8..16), 1..7),
            0..12,
        ),
        right in prop::collection::vec(
            prop::collection::vec((-4096i32..4096, 0u8..16), 1..7),
            0..12,
        ),
        pairs in prop::collection::vec((0u32..1000, 0u32..1000), 0..30),
        bits in prop::collection::vec(0u8..2, 0..40),
    ) {
        let catalog = Response::Catalog {
            epoch: v,
            names: names.iter().map(|&n| name('c', n)).collect(),
        };
        prop_assert_eq!(roundtrip_response(&catalog), catalog);

        let rows: Vec<String> = cells.iter().map(|(a, b)| format!("{a},{b}")).collect();
        let relation = Response::Relation {
            name: name('t', v),
            csv: format!("key,cost\n{}", rows.join("\n")),
        };
        prop_assert_eq!(roundtrip_response(&relation), relation);

        let legs = Response::Legs(leg_set(left, right, pairs));
        prop_assert_eq!(roundtrip_response(&legs), legs);

        let checked = Response::Checked(bits.into_iter().map(|b| b == 1).collect());
        prop_assert_eq!(roundtrip_response(&checked), checked);
    }

    /// Random junk never panics either parser — it may parse (junk can
    /// be accidentally well-formed) but must never tear anything down.
    #[test]
    fn junk_never_panics_the_parsers(bytes in prop::collection::vec(0u8..=255, 0..120)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    /// Junk behind the leg-form prefixes reaches the `L`/`R`/`P` section
    /// parsers, which must reject it (or accept it) without a panic.
    #[test]
    fn junk_leg_sections_never_panic(
        which in 0usize..6,
        picks in prop::collection::vec(0usize..LEG_ALPHABET.len(), 0..80),
    ) {
        let prefix = [
            "CHECK a JOIN b K 5 ",
            "CHECK a JOIN b K 5 L ",
            "CHECK a JOIN b AGG sum K 9 L 1,2 R ",
            "LEGS n=1 ",
            "LEGS n=0 P ",
            "LEGS n=2 L 1;2 R 3 P ",
        ][which];
        let tail: String = picks.iter().map(|&i| LEG_ALPHABET[i]).collect();
        let line = format!("{prefix}{tail}");
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }
}
