//! The JSON decoder every result crosses on the wire and in the store:
//! arbitrary strings survive an encode/decode round trip both as values
//! and as object keys, hand-written `\u` escapes next to multibyte runs
//! decode to the original text, and decoding stays linear in the input.

use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Characters the string fast path treats specially, or whose UTF-8 form
/// is longer than one byte.
const TRICKY: &str = "\"\\/u\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é€\u{FFFD}\u{FFFF}😀\u{10FFFF}a ";

/// Strings mixing the tricky characters with arbitrary Unicode scalars.
fn arbitrary_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (any::<bool>(), prop::sample::select(TRICKY.chars().collect()), any::<u32>()),
        0..48,
    )
    .prop_map(|parts| {
        // Surrogate code points are not scalars; they fall back to the
        // tricky character too.
        parts
            .into_iter()
            .map(|(tricky, t, n)| char::from_u32(n % 0x11_0000).filter(|_| !tricky).unwrap_or(t))
            .collect()
    })
}

/// Renders `s` as a JSON string literal, writing the characters whose
/// flag is set as `\u` escapes (UTF-16 surrogate pairs above U+FFFF) and
/// the rest raw, escaping only what JSON requires.
fn hand_escaped(s: &str, escape: &[bool]) -> String {
    let mut out = String::from('"');
    for (i, c) in s.chars().enumerate() {
        if escape.get(i).copied().unwrap_or(false) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        } else {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c => out.push(c),
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip_as_values_and_keys(s in arbitrary_string()) {
        let value = Value::String(s.clone());
        let text = serde_json::to_string(&value).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), value);
        prop_assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s);

        let object = Value::Object(BTreeMap::from([
            (s.clone(), Value::String(s.clone())),
            ("k".to_string(), Value::Array(vec![Value::String(s.clone())])),
        ]));
        let text = serde_json::to_string(&object).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), object);
    }

    #[test]
    fn escapes_next_to_multibyte_runs_decode_to_the_original(
        s in arbitrary_string(),
        escape in prop::collection::vec(any::<bool>(), 0..48),
    ) {
        let text = hand_escaped(&s, &escape);
        prop_assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s);
        let keyed = format!("{{{text}:{text}}}");
        let expected = Value::Object(BTreeMap::from([(s.clone(), Value::String(s.clone()))]));
        prop_assert_eq!(serde_json::from_str::<Value>(&keyed).unwrap(), expected);
    }
}

#[test]
fn unterminated_string_after_a_multibyte_run_reports_the_end_offset() {
    // 2 + 2 + 3 + 4 + 1 bytes in 6 characters: the offset counts bytes.
    let text = "[\"é€😀x";
    assert_eq!(text.len(), 12);
    let err = serde_json::from_str::<Value>(text).unwrap_err();
    assert_eq!(err.offset, text.len());
    assert!(err.to_string().contains("unterminated string"), "{err}");

    let err = serde_json::from_str::<Value>("{\"é€😀").unwrap_err();
    assert_eq!(err.offset, 11);
}

#[test]
fn a_one_mebibyte_string_decodes_in_linear_time() {
    // A timing assertion whose margin cannot flake: this decode takes
    // about 2 ms in a release build and well under 100 ms unoptimized,
    // while a decoder that rescans the rest of the input per character
    // took 19 s in release on the same input. A runner slowed a
    // hundredfold by contention still passes a linear decoder, and no
    // runner is fast enough to pass a quadratic one.
    let body = "a".repeat(1 << 20);
    let text = format!("\"{body}\"");
    let started = Instant::now();
    let decoded: String = serde_json::from_str(&text).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(decoded, body);
    assert!(elapsed < Duration::from_secs(2), "1 MiB string took {elapsed:?} to decode");
}
