//! Property tests for the Prometheus exposition parser.
//!
//! `/metrics` on `emissary-serve` feeds `parse_prometheus` to tooling
//! (and `emissary-inspect` reads `.prom` snapshots off disk), so the
//! parser sees untrusted-adjacent bytes: truncated scrapes, torn writes,
//! editor-mangled files. Two properties must hold: the parser never
//! panics, and a torn scrape parses its complete leading lines exactly
//! as the whole text does.

use emissary_obs::parse_prometheus;
use proptest::collection::vec;
use proptest::prelude::*;

/// A byte palette biased toward the format's structural characters so
/// random inputs actually exercise the label/value/escape paths instead
/// of being rejected at the first character.
fn hostile_text() -> impl Strategy<Value = String> {
    vec(0u32..96, 0..160).prop_map(|codes| {
        const PALETTE: &[char] = &[
            '{', '}', '"', '\\', '=', ',', ' ', '\n', '#', 'a', 'b', '_', '0', '9', '.', '+', '-',
            'I', 'n', 'f', 'N', 'e', '\t', '\r',
        ];
        codes
            .into_iter()
            .map(|c| PALETTE[c as usize % PALETTE.len()])
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics_on_hostile_input(text in hostile_text()) {
        // The parse is allowed to drop malformed lines, never to panic.
        let _ = parse_prometheus(&text);
    }

    #[test]
    fn truncation_never_panics_and_stays_a_prefix(
        text in hostile_text(),
        cut in 0usize..160,
    ) {
        // Truncate at an arbitrary char boundary (a torn scrape) — the
        // parser must cope, and complete leading lines must still parse
        // identically to the untruncated text.
        let cut = text
            .char_indices()
            .map(|(i, _)| i)
            .take(cut + 1)
            .last()
            .unwrap_or(0);
        let torn = &text[..cut];
        let torn_samples = parse_prometheus(torn);
        let full_samples = parse_prometheus(&text);
        // Every sample from a fully-contained line of the torn prefix
        // also leads the full parse.
        let keep = torn
            .rfind('\n')
            .map(|nl| parse_prometheus(&torn[..nl]).len())
            .unwrap_or(0);
        prop_assert!(torn_samples.len() >= keep);
        prop_assert_eq!(&full_samples[..keep.min(full_samples.len())],
                        &torn_samples[..keep.min(torn_samples.len())]);
    }
}
