//! The JSON codec every result crosses on the wire and in the store:
//! arbitrary strings survive an encode/decode round trip both as values
//! and as object keys, hand-written `\u` escapes next to multibyte runs
//! decode to the original text, and decoding stays linear in the input.
//!
//! The encoder is checked byte for byte against [`Reference`], the
//! `Formatter`-based writer it replaced: on generated values, on every
//! result of a catalogue sweep, on both chip presets, and pretty-printed.

use ascend::arch::ChipSpec;
use ascend::ops::{OpSpec, OptFlags};
use ascend::pipeline::AnalysisPipeline;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
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

/// The compact writer the run-based renderer replaced, one `write!` per
/// character, kept as the byte-identity oracle.
struct Reference<'a>(&'a Value);

impl fmt::Display for Reference<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(n) => write!(f, "{n}"),
            Value::I64(n) => write!(f, "{n}"),
            Value::F64(n) if n.is_finite() => write!(f, "{n:?}"),
            Value::F64(_) => f.write_str("null"),
            Value::String(s) => reference_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Reference(item))?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    reference_escaped(f, k)?;
                    write!(f, ":{}", Reference(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn reference_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// The two-space-indented writer with every scalar and key rendered by
/// [`Reference`].
fn reference_pretty(out: &mut String, value: &Value, indent: usize) {
    let pad = |out: &mut String, indent: usize| out.push_str(&"  ".repeat(indent));
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                reference_pretty(out, item, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                out.push_str(&Reference(&Value::String(k.clone())).to_string());
                out.push_str(": ");
                reference_pretty(out, v, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => out.push_str(&Reference(other).to_string()),
    }
}

/// Asserts that the compact, `Display` and pretty encodings of `value`
/// match the reference writers byte for byte. A typed value encodes
/// through its `Value` tree, so checking the tree covers it.
fn assert_renders_like_the_reference(value: &Value) {
    let compact = Reference(value).to_string();
    assert_eq!(serde_json::to_string(value).unwrap(), compact);
    assert_eq!(value.to_string(), compact);
    let mut pretty = String::new();
    reference_pretty(&mut pretty, value, 0);
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
}

/// Floats at the edges of the rendering: signed zero, extremes,
/// subnormals, and the non-finite values that render as `null`.
const EDGE_FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    0.1,
    -2.5e-8,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    2.225e-310,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Generated [`Value`] trees up to `depth` levels of nesting, with every
/// scalar variant, every control byte and multibyte runs in strings and
/// keys, and the [`EDGE_FLOATS`] mixed with arbitrary bit patterns.
struct ArbitraryValue {
    depth: u32,
}

impl ArbitraryValue {
    fn string(rng: &mut TestRng) -> String {
        let len = rng.next_u64() % 24;
        (0..len)
            .map(|_| match rng.next_u64() % 6 {
                0 => char::from_u32((rng.next_u64() % 0x20) as u32).expect("control character"),
                1 => TRICKY.chars().cycle().nth((rng.next_u64() % 64) as usize).expect("non-empty"),
                2 => char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('\\'),
                _ => char::from(b'a' + (rng.next_u64() % 26) as u8),
            })
            .collect()
    }

    fn scalar(rng: &mut TestRng) -> Value {
        match rng.next_u64() % 8 {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::U64(rng.next_u64() >> (rng.next_u64() % 64)),
            3 => Value::I64((rng.next_u64() >> (rng.next_u64() % 64)) as i64 | i64::MIN),
            4 => Value::I64((rng.next_u64() >> 1) as i64),
            5 => Value::F64(EDGE_FLOATS[(rng.next_u64() % EDGE_FLOATS.len() as u64) as usize]),
            6 => Value::F64(f64::from_bits(rng.next_u64())),
            _ => Value::String(Self::string(rng)),
        }
    }
}

impl Strategy for ArbitraryValue {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let width = rng.next_u64() % 5;
        match rng.next_u64() % 4 {
            0 if self.depth > 0 => Value::Array(
                (0..width).map(|_| ArbitraryValue { depth: self.depth - 1 }.sample(rng)).collect(),
            ),
            1 if self.depth > 0 => Value::Object(
                (0..width)
                    .map(|_| {
                        (Self::string(rng), ArbitraryValue { depth: self.depth - 1 }.sample(rng))
                    })
                    .collect(),
            ),
            _ => Self::scalar(rng),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_values_render_like_the_reference(value in ArbitraryValue { depth: 4 }) {
        assert_renders_like_the_reference(&value);
    }

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

#[test]
fn edge_scalars_render_like_the_reference() {
    let mut scalars: Vec<Value> = EDGE_FLOATS.iter().map(|&n| Value::F64(n)).collect();
    scalars.extend([
        Value::U64(0),
        Value::U64(u64::MAX),
        Value::I64(i64::MIN),
        Value::I64(-1),
        Value::I64(0),
        Value::I64(i64::MAX),
        Value::String((0u8..0x80).map(char::from).collect()),
        Value::String(TRICKY.to_string()),
        Value::String(String::new()),
    ]);
    for scalar in &scalars {
        assert_renders_like_the_reference(scalar);
    }
    assert_renders_like_the_reference(&Value::Array(scalars.clone()));
    assert_eq!(serde_json::to_string(&Value::F64(-0.0)).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&Value::F64(f64::NAN)).unwrap(), "null");
}

#[test]
fn chip_presets_render_like_the_reference() {
    assert_renders_like_the_reference(&serde_json::to_value(&ChipSpec::training()));
    assert_renders_like_the_reference(&serde_json::to_value(&ChipSpec::inference()));
}

#[test]
fn catalogue_results_render_like_the_reference() {
    // The cluster benchmark's catalogue: four element-wise kernels at
    // 2^14..2^18 elements and four matmuls, untuned and tuned.
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    for tuned in [false, true] {
        let flags = if tuned {
            OptFlags::new().rsd(true).mrt(true).ais(true).rus(true)
        } else {
            OptFlags::new()
        };
        let mut specs = Vec::new();
        for shift in 14..=18 {
            let elements = 1u64 << shift;
            specs.extend(
                [
                    OpSpec::add_relu(elements),
                    OpSpec::softmax(elements),
                    OpSpec::layer_norm(elements),
                    OpSpec::gelu(elements),
                ]
                .map(|spec| spec.with_flags(flags)),
            );
        }
        let matmul_flags = if tuned { OptFlags::new().pp(true) } else { OptFlags::new() };
        for (m, k, n) in [(64, 64, 64), (128, 128, 128), (128, 256, 128), (256, 256, 256)] {
            specs.push(OpSpec::matmul(m, k, n).with_flags(matmul_flags));
        }
        for spec in specs {
            let result = pipeline.run(spec.instantiate().as_ref()).unwrap();
            assert_renders_like_the_reference(&serde_json::to_value(&*result));
        }
    }
}
