//! No-panic properties for the two parsers that read outside input:
//! the `serde_json` shim's [`serde_json::from_str`] and
//! [`ScenarioSpec::from_json_str`]. Whatever text arrives — random bytes,
//! a truncated spec file, a spec with one byte flipped — each call must
//! return `Ok` or `Err`; a panic fails the test.

use mrvd::scenario::{builtins, ScenarioSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes that steer random input into the parsers' deeper paths: JSON
/// punctuation, escapes, digits, keyword letters and a multi-byte char.
const JSON_ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \n\\/ubfnrtaslx\xc3\xa9";

/// Feeds one text to both parsers. Only a panic can fail.
fn parse_both(text: &str) {
    let _ = serde_json::from_str(text);
    let _ = ScenarioSpec::from_json_str(text);
}

/// The built-in specs, serialized as a scenario file would hold them.
fn builtin_texts() -> Vec<String> {
    builtins()
        .iter()
        .map(|s| serde_json::to_string_pretty(&s.to_json()).expect("serializable"))
        .collect()
}

#[test]
fn builtin_specs_parse_back_and_every_truncation_is_handled() {
    for (spec, text) in builtins().iter().zip(builtin_texts()) {
        assert_eq!(ScenarioSpec::from_json_str(&text).as_ref(), Ok(spec));
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            parse_both(&String::from_utf8_lossy(&bytes[..cut]));
        }
    }
}

proptest! {
    /// Arbitrary bytes, made into text the way a lossy file reader would.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    /// Random strings over a JSON-ish alphabet reach past the first byte.
    #[test]
    fn json_like_noise_never_panics(
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..256),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    /// One byte of a serialized built-in replaced by any other byte:
    /// types change, strings break, numbers overflow, keys misspell.
    #[test]
    fn single_byte_substitutions_never_panic(seed in 0u64..u64::MAX) {
        let texts = builtin_texts();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let mut bytes = texts[rng.gen_range(0..texts.len())].clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0u8..=255);
            parse_both(&String::from_utf8_lossy(&bytes));
        }
    }
}
