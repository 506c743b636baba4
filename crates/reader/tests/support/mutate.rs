//! Text mutations for the store-codec differential oracles, shared by the
//! profile, session and epoch-snapshot decoders' tests (included with
//! `#[path]`).
//!
//! [`relayout`] changes how a file is laid out but not what it reads as;
//! [`corrupt`] damages it the way torn writes and bit rot do, plus a few
//! targeted edits (oversized positions, stray dots and datum comments)
//! that probe the decoders' error paths.

use proptest::TestRng;

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// Byte offsets of the whitespace runs that separate tokens (outside
/// string literals), with the byte that follows each run.
fn gaps(text: &str) -> Vec<(usize, usize, u8)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut in_str) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_str = true;
            i += 1;
        } else if b.is_ascii_whitespace() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            out.push((start, i, bytes.get(i).copied().unwrap_or(b')')));
        } else {
            i += 1;
        }
    }
    out
}

/// Rewrites the whitespace between tokens as comments, datum comments and
/// odd whitespace; the text still reads as the same datums.
pub fn relayout(text: &str, rng: &mut TestRng) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut last = 0;
    for (start, end, next) in gaps(text) {
        if !chance(rng, 20) {
            continue;
        }
        out.push_str(&text[last..start]);
        let mut sep = pick(
            rng,
            &[
                "  ",
                "\n\t",
                "\r\n ",
                " ; note (\n",
                " #| block #| nested |# |# ",
                "\x0c",
            ],
        )
        .to_owned();
        // A datum comment must be followed by a datum, not a close or a
        // dotted tail's `.`.
        if !matches!(next, b')' | b']' | b'.') && chance(rng, 40) {
            sep.push_str(pick(
                rng,
                &["#;(skipped 1 \"s\") ", "#;x ", "#; #;a b ", "#;'q "],
            ));
        }
        out.push_str(&sep);
        last = end;
    }
    out.push_str(&text[last..]);
    out
}

/// One random corruption of `text`.
pub fn corrupt(text: &str, rng: &mut TestRng) -> String {
    let n = text.len();
    let at = |rng: &mut TestRng| {
        let mut i = rng.below(n as u64 + 1) as usize;
        while !text.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    match rng.below(6) {
        // A torn write.
        0 => text[..at(rng)].to_owned(),
        // An ASCII byte flipped to a syntax-significant one.
        1 => {
            let i = at(rng);
            match text[i..].chars().next() {
                Some(c) if c.is_ascii() => {
                    let with = pick(
                        rng,
                        &[
                            "(", ")", "]", "\"", "\\", ";", "#", "'", ".", " ", "0", "9", "-", "x",
                            "a",
                        ],
                    );
                    format!("{}{}{}", &text[..i], with, &text[i + 1..])
                }
                _ => text.to_owned(),
            }
        }
        // A span dropped or duplicated.
        2 | 3 => {
            let (a, b) = (at(rng), at(rng));
            let (a, b) = (a.min(b), a.max(b).min(a.min(b) + 40));
            let mut b = b;
            while !text.is_char_boundary(b) {
                b -= 1;
            }
            if rng.below(2) == 0 {
                format!("{}{}", &text[..a], &text[b..])
            } else {
                format!("{}{}{}", &text[..b], &text[a..b], &text[b..])
            }
        }
        // A number swapped for one outside the checked ranges.
        4 => {
            let digits: Vec<usize> = text
                .bytes()
                .enumerate()
                .filter(|&(i, b)| {
                    b.is_ascii_digit() && (i == 0 || !text.as_bytes()[i - 1].is_ascii_digit())
                })
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                return text.to_owned();
            }
            let i = digits[rng.below(digits.len() as u64) as usize];
            let mut j = i;
            while j < n && text.as_bytes()[j].is_ascii_digit() {
                j += 1;
            }
            let with = pick(
                rng,
                &[
                    "4294967296",
                    "4294967297",
                    "-1",
                    "99999999999999999999",
                    "65536",
                    "1.5",
                ],
            );
            format!("{}{}{}", &text[..i], with, &text[j..])
        }
        // A stray dot, quote or datum comment between tokens.
        _ => match gaps(text).as_slice() {
            [] => text.to_owned(),
            gaps => {
                let (start, _, _) = gaps[rng.below(gaps.len() as u64) as usize];
                let with = pick(rng, &[" . ", " #; ", " '", " . (", " #(", " ()"]);
                format!("{}{}{}", &text[..start], with, &text[start..])
            }
        },
    }
}
