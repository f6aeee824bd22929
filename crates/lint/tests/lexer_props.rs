//! Property tests for the lint lexer.
//!
//! The lexer underpins every rule, so its two contracts are checked over
//! generated inputs:
//!
//! 1. **No panics** — any byte soup, valid UTF-8 or not (after lossy
//!    conversion), lexes to completion.
//! 2. **Exact tiling** — token spans partition the input: the first
//!    token starts at 0, each next token starts where the previous
//!    ended, the last token ends at `len`, and every span lies on char
//!    boundaries (slicing cannot panic). Concatenating the spans
//!    reproduces the input byte-for-byte, so offsets and line numbers
//!    derived from tokens are always trustworthy.
//!
//! The shim's strategies cannot generate strings directly, so inputs are
//! built from integer draws: either indices into an alphabet of nasty
//! Rust constructs, or raw bytes run through lossy UTF-8 conversion.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use ins_lint::lexer::lex;
use proptest::prelude::*;

/// Lexically adversarial building blocks: raw strings, nested block
/// comments, doc comments, char literals vs lifetimes, numeric edge
/// cases, fused punctuation, multi-byte UTF-8 and *unterminated*
/// constructs that swallow the rest of the input.
const ALPHABET: &[&str] = &[
    "fn f() {}\n",
    "r#\"raw \" with quote\"#",
    "r\"plain raw\"",
    "br#\"byte raw\"#",
    "/* block /* nested */ still */",
    "/* unterminated",
    "// line comment\n",
    "/// doc comment\n",
    "//! inner doc\n",
    "/** doc block */",
    "'a'",
    "'\\n'",
    "'\\''",
    "'static",
    "'_",
    "\"string \\\" escaped\"",
    "\"unterminated",
    "r#\"unterminated raw",
    "0.5e-3",
    "1_000_000",
    "0x_ff",
    "0b1010",
    "1..=2",
    "x.0.1",
    "2.f64",
    "ident_1",
    "é",
    "汉字",
    "🦀",
    "#[cfg(test)]",
    "mod tests {",
    "}",
    "==",
    "=>",
    "..",
    "::",
    "->",
    "\\",
    "\u{0}",
    " ",
    "\t",
    "\n",
];

/// Checks the tiling contract on one input.
fn assert_tiles(src: &str) {
    let tokens = lex(src);
    if src.is_empty() {
        assert!(tokens.is_empty(), "empty input must yield no tokens");
        return;
    }
    let mut expected_start = 0usize;
    for t in &tokens {
        assert_eq!(
            t.start, expected_start,
            "token does not start where the previous ended in {src:?}"
        );
        assert!(t.end > t.start, "empty token span in {src:?}");
        // Spans must be sliceable: on char boundaries, in bounds.
        assert!(
            src.get(t.start..t.end).is_some(),
            "span {}..{} not on char boundaries in {src:?}",
            t.start,
            t.end
        );
        expected_start = t.end;
    }
    assert_eq!(
        expected_start,
        src.len(),
        "tokens do not cover the full input {src:?}"
    );
    // Tiling + sliceability implies byte-exact round-trip.
    let rebuilt: String = tokens.iter().map(|t| &src[t.start..t.end]).collect();
    assert_eq!(rebuilt, src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexer_tiles_construct_soup(indices in collection::vec(0usize..ALPHABET.len(), 0..40)) {
        let src: String = indices.iter().map(|&i| ALPHABET[i]).collect();
        assert_tiles(&src);
    }

    #[test]
    fn lexer_survives_arbitrary_bytes(bytes in collection::vec(0u32..=255u32, 0..120)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let src = String::from_utf8_lossy(&raw).into_owned();
        assert_tiles(&src);
    }
}

#[test]
fn lexer_tiles_every_single_alphabet_entry() {
    for entry in ALPHABET {
        assert_tiles(entry);
    }
}
