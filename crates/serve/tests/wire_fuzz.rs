//! Seeded fuzzing of the request parser: whatever bytes arrive on a
//! session, `wire::parse_request` must return, never panic, and every
//! failure must be one of the parser's typed kinds with a diagnostic.
//!
//! Four input families, from one std-only generator so a failing case
//! replays from its seed:
//!
//! - random bytes (decoded as the server decodes a line, lossily);
//! - every truncation of each valid frame;
//! - valid frames with a few bytes flipped, inserted, deleted or
//!   replaced by JSON punctuation;
//! - deeply nested frames up to the 64 KiB frame cap. These exercise
//!   the parser's recursion, so an unbounded depth would abort the
//!   process with a stack overflow, which no `catch_unwind` can catch.

use spotbid_serve::wire::{parse_request, ErrorKind, Request, WireError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: a tiny, std-only, seedable generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// The generator's base seed.
const SEED: u64 = 0x5EED_F022;

/// Well-formed frames covering every op and parameter shape.
const VALID: &[&str] = &[
    r#"{"op":"ping"}"#,
    r#"{"op":"status"}"#,
    r#"{"op":"advise","strategy":"onetime","ts_hours":2.0,"tr_secs":30.0}"#,
    r#"{"op":"advise","strategy":"persistent","ts_hours":1.0}"#,
    r#"{"op":"mapred","ts_hours":1.5,"tr_secs":20,"to_secs":5,"m_max":64}"#,
    r#"{"op":"__crash_worker"}"#,
    r#" { "ts_hours" : 0.25 , "op" : "advise" , "strategy" : "onetime" } "#,
];

/// Bytes the mutator favours: the JSON structure characters, plus bytes
/// that are never valid UTF-8 on their own.
const PUNCT: &[u8] = b"{}[]\",:-+.eE0\\ \t\n\xff\xc3";

/// Parses `bytes` as the server would see them as one line, asserting the
/// parser returns (no panic) and that a failure is typed. Returns whether
/// the line parsed.
fn check(bytes: &[u8], what: &str) -> bool {
    let line = String::from_utf8_lossy(bytes).into_owned();
    let result = catch_unwind(AssertUnwindSafe(|| parse_request(&line)));
    let parsed = result.unwrap_or_else(|_| panic!("{what}: parse_request panicked on {line:?}"));
    match parsed {
        Ok(req) => {
            assert_sane(&req, &line);
            true
        }
        Err(e) => {
            assert_typed(&e, &line, what);
            false
        }
    }
}

/// A parse failure carries one of the parser's kinds and a diagnostic.
fn assert_typed(e: &WireError, line: &str, what: &str) {
    assert!(
        matches!(
            e.kind,
            ErrorKind::MalformedFrame | ErrorKind::UnknownOp | ErrorKind::InvalidParam
        ),
        "{what}: {line:?} failed with non-parser kind {:?}",
        e.kind
    );
    assert!(
        !e.detail.is_empty(),
        "{what}: {line:?} failed without a diagnostic"
    );
}

/// A parsed request respects the parser's own range checks.
fn assert_sane(req: &Request, line: &str) {
    if let Request::MapRed { m_max, .. } = req {
        assert!(*m_max >= 1, "{line:?} parsed to m_max {m_max}");
    }
}

#[test]
fn valid_frames_parse() {
    for frame in VALID {
        assert!(check(frame.as_bytes(), "valid"), "{frame} was refused");
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut g = Gen(SEED);
    for case in 0..20_000 {
        let len = g.below(160);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                // Half the bytes from the JSON alphabet, so some inputs
                // get past the first character.
                if g.below(2) == 0 {
                    PUNCT[g.below(PUNCT.len())]
                } else {
                    g.byte()
                }
            })
            .collect();
        check(&bytes, &format!("random case {case}"));
    }
}

#[test]
fn truncated_frames_are_refused_not_panicked() {
    let mut refused = 0;
    for frame in VALID {
        let bytes = frame.as_bytes();
        for cut in 0..bytes.len() {
            if !check(&bytes[..cut], &format!("{frame} cut at {cut}")) {
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "no truncation was refused");
}

#[test]
fn mutated_frames_never_panic() {
    let mut g = Gen(SEED ^ 0x00AB_CDEF);
    let (mut parsed, mut refused) = (0, 0);
    for case in 0..20_000 {
        let mut bytes = VALID[g.below(VALID.len())].as_bytes().to_vec();
        for _ in 0..1 + g.below(4) {
            let at = g.below(bytes.len() + 1);
            match g.below(4) {
                0 if at < bytes.len() => bytes[at] ^= 1 << g.below(8),
                1 => bytes.insert(at, PUNCT[g.below(PUNCT.len())]),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ if at < bytes.len() => bytes[at] = g.byte(),
                _ => bytes.push(g.byte()),
            }
        }
        if check(&bytes, &format!("mutated case {case}")) {
            parsed += 1;
        } else {
            refused += 1;
        }
    }
    // Both outcomes occur: the mutations are neither all fatal nor all
    // harmless, so both branches of the check ran.
    assert!(
        parsed > 0 && refused > 0,
        "{parsed} parsed, {refused} refused"
    );
}

/// The server's per-line frame cap.
const FRAME_CAP: usize = 64 * 1024;

#[test]
fn deeply_nested_frames_are_refused_not_overflowed() {
    let mut g = Gen(SEED ^ 0x00DE_E9E5);
    // The worst cases first: one bracket kind repeated to the frame cap,
    // bare and inside a field of a valid frame.
    let mut frames = vec![
        "[".repeat(FRAME_CAP - 1),
        "{\"a\":".repeat((FRAME_CAP - 1) / 5),
        format!(
            r#"{{"op":"advise","ts_hours":{}"#,
            "[".repeat(FRAME_CAP - 40)
        ),
    ];
    // Then random mixes of openers, closers and values at random depths.
    for _ in 0..64 {
        let depth = 200 + g.below(FRAME_CAP / 8);
        let mut f = String::with_capacity(depth * 6);
        for _ in 0..depth {
            match g.below(3) {
                0 => f.push('['),
                1 => f.push_str(r#"{"k":"#),
                _ => f.push_str("[1,"),
            }
        }
        if g.below(2) == 0 {
            f.push_str(&"]".repeat(depth));
        }
        frames.push(f);
    }
    for (case, f) in frames.iter().enumerate() {
        assert!(f.len() < FRAME_CAP, "case {case} exceeds the frame cap");
        assert!(
            !check(f.as_bytes(), &format!("nested case {case}")),
            "nested case {case} parsed"
        );
    }
}
