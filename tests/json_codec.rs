//! The JSON codec every result crosses on the wire and in the store:
//! arbitrary strings survive an encode/decode round trip both as values
//! and as object keys, hand-written `\u` escapes next to multibyte runs
//! decode to the original text, and decoding stays linear in the input.
//!
//! The encoder is checked byte for byte against [`Reference`], the
//! `Formatter`-based writer it replaced: on generated values, on every
//! result of a catalogue sweep, on both chip presets, and pretty-printed.
//!
//! The typed decoder reads straight into the target type and must give
//! what decoding through a `Value` tree gave. Mutated encodings of
//! results, job and reply frames, chips and a kernel (truncated, flipped,
//! with fields dropped, added, repeated, reordered or escaped, variants
//! and tuples reshaped, integers written as floats, trailing bytes)
//! decode to the outcomes in `tests/golden/decode_corpus.txt`, written by
//! the tree decoder; regenerate it only after an intended change of
//! decoding rules, with `ASCEND_UPDATE_GOLDEN=1 cargo test --test
//! json_codec`. A property test checks that any mutated input decodes
//! like its canonical form, and hostile inputs (deep nesting in an
//! unknown field, a 1 MiB string field, wrongly typed repeated keys) hit
//! the typed path directly.

use ascend::arch::ChipSpec;
use ascend::faults::{BuggyEngine, HostileMode, SplitMix64};
use ascend::isa::Kernel;
use ascend::models::zoo;
use ascend::ops::{OpSpec, Operator, OptFlags};
use ascend::pipeline::digest::fnv1a;
use ascend::pipeline::{reencode_payload, AnalysisPipeline, FrameKind, PipelineResult, WorkSpec};
use ascend::roofline::Thresholds;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
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

/// A small catalogue result and its encoding.
fn sample_result() -> (PipelineResult, String) {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let result = (*pipeline.run(OpSpec::add_relu(1 << 14).instantiate().as_ref()).unwrap()).clone();
    let text = serde_json::to_string(&result).unwrap();
    (result, text)
}

/// `text` with `entry` inserted as the first entry of its outer object.
fn with_first_entry(text: &str, entry: &str) -> String {
    format!("{{{entry},{}", &text[1..])
}

#[test]
fn hostile_nesting_in_an_unknown_field_is_an_error_not_a_stack_overflow() {
    let (_, text) = sample_result();
    let deep = with_first_entry(&text, &format!("\"zz_unknown\":{}", "[".repeat(100_000)));
    assert!(serde_json::from_str::<PipelineResult>(&deep).is_err());
    let closed = with_first_entry(
        &text,
        &format!("\"zz_unknown\":{}{}", "[".repeat(100_000), "]".repeat(100_000)),
    );
    let err = serde_json::from_str::<PipelineResult>(&closed).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    // Within the bound, the unknown field is skipped.
    let shallow =
        with_first_entry(&text, &format!("\"zz_unknown\":{}{}", "[".repeat(100), "]".repeat(100)));
    assert_eq!(serde_json::from_str::<PipelineResult>(&shallow).unwrap(), sample_result().0);
}

#[test]
fn a_one_mebibyte_string_field_decodes_in_linear_time() {
    // The bound of `a_one_mebibyte_string_decodes_in_linear_time`, for a
    // string read in place as a struct field.
    let (mut result, _) = sample_result();
    result.kernel_name = "é".repeat(1 << 19);
    let text = serde_json::to_string(&result).unwrap();
    let started = Instant::now();
    let decoded: PipelineResult = serde_json::from_slice(text.as_bytes()).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(decoded, result);
    assert!(elapsed < Duration::from_secs(2), "1 MiB string field took {elapsed:?} to decode");
}

#[test]
fn a_repeated_key_takes_its_last_value_even_after_a_wrongly_typed_one() {
    let (result, text) = sample_result();
    // The encoder sorts keys, so an entry inserted first comes before the
    // real one, and one inserted last comes after it.
    for decoy in ["\"wrong\"", "-1", "1.5", "[]", "{}", "null", "{\"Ok\":[1,2]}"] {
        let before = with_first_entry(&text, &format!("\"kernel_len\":{decoy}"));
        assert_eq!(serde_json::from_str::<PipelineResult>(&before).unwrap(), result, "{decoy}");
        let trace = with_first_entry(&text, &format!("\"trace\":{decoy}"));
        assert_eq!(serde_json::from_str::<PipelineResult>(&trace).unwrap(), result, "{decoy}");
        let after = format!("{},\"kernel_len\":{decoy}}}", &text[..text.len() - 1]);
        assert!(serde_json::from_str::<PipelineResult>(&after).is_err(), "{decoy}");
    }
    // A well-typed later copy replaces the earlier value.
    let replaced = format!("{},\"kernel_len\":7}}", &text[..text.len() - 1]);
    let decoded: PipelineResult = serde_json::from_str(&replaced).unwrap();
    assert_eq!(decoded.kernel_len, 7);
    // The same rule holds inside an enum's one-key object.
    let text =
        serde_json::to_string(&WorkSpec::hostile(HostileMode::Grow { megabytes: 3 })).unwrap();
    let repeated = text.replacen("{\"Hostile\":", "{\"Hostile\":\"wrong\",\"Hostile\":", 1);
    assert_eq!(
        serde_json::from_str::<WorkSpec>(&repeated).unwrap(),
        serde_json::from_str::<WorkSpec>(&text).unwrap()
    );
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

// ------------------------------------------------------------ decode corpus

/// A JSON document whose objects keep their written key order and may
/// repeat a key, so it can spell what a [`Value`] cannot: reordered,
/// duplicate and escaped keys, and extra whitespace.
#[derive(Clone, Debug)]
enum Doc {
    /// A scalar, as written.
    Scalar(String),
    Array(Vec<Doc>),
    /// Entries as (key literal with its quotes, value).
    Object(Vec<(String, Doc)>),
}

impl Doc {
    fn from_value(value: &Value) -> Doc {
        match value {
            Value::Array(items) => Doc::Array(items.iter().map(Doc::from_value).collect()),
            Value::Object(map) => Doc::Object(
                map.iter()
                    .map(|(k, v)| (Value::String(k.clone()).to_string(), Doc::from_value(v)))
                    .collect(),
            ),
            scalar => Doc::Scalar(scalar.to_string()),
        }
    }

    fn parse(text: &str) -> Doc {
        Doc::from_value(&serde_json::from_str(text).expect("base documents are valid JSON"))
    }

    /// Writes the document compactly, or with whitespace around every
    /// token when `spaced`.
    fn render(&self, out: &mut String, spaced: bool) {
        let gap = if spaced { " \n\t\r" } else { "" };
        match self {
            Doc::Scalar(text) => out.push_str(text),
            Doc::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(gap);
                    item.render(out, spaced);
                    out.push_str(gap);
                }
                out.push(']');
            }
            Doc::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(gap);
                    out.push_str(key);
                    out.push_str(gap);
                    out.push(':');
                    out.push_str(gap);
                    value.render(out, spaced);
                    out.push_str(gap);
                }
                out.push('}');
            }
        }
    }

    /// Paths (child indices from the root) of the nodes `keep` accepts.
    fn paths(&self, keep: fn(&Doc) -> bool) -> Vec<Vec<usize>> {
        fn walk(
            doc: &Doc,
            path: &mut Vec<usize>,
            keep: fn(&Doc) -> bool,
            out: &mut Vec<Vec<usize>>,
        ) {
            if keep(doc) {
                out.push(path.clone());
            }
            let children: Vec<&Doc> = match doc {
                Doc::Scalar(_) => Vec::new(),
                Doc::Array(items) => items.iter().collect(),
                Doc::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
            };
            for (i, child) in children.into_iter().enumerate() {
                path.push(i);
                walk(child, path, keep, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        walk(self, &mut Vec::new(), keep, &mut out);
        out
    }

    fn at(&mut self, path: &[usize]) -> &mut Doc {
        path.iter().fold(self, |doc, &i| match doc {
            Doc::Array(items) => &mut items[i],
            Doc::Object(entries) => &mut entries[i].1,
            Doc::Scalar(_) => unreachable!("paths only descend into containers"),
        })
    }

    /// A random node `keep` accepts, if there is one.
    fn pick(&mut self, rng: &mut SplitMix64, keep: fn(&Doc) -> bool) -> Option<&mut Doc> {
        let paths = self.paths(keep);
        if paths.is_empty() {
            return None;
        }
        let path = &paths[rng.below(paths.len() as u64) as usize];
        Some(self.at(path))
    }
}

fn is_object(doc: &Doc) -> bool {
    matches!(doc, Doc::Object(entries) if !entries.is_empty())
}

fn is_unsigned(doc: &Doc) -> bool {
    matches!(doc, Doc::Scalar(text) if text.bytes().all(|b| b.is_ascii_digit()))
}

/// The edits the corpus applies to a valid encoding.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Cut the text at a random byte.
    Truncate,
    /// XOR one random byte with a random nonzero mask.
    FlipByte,
    /// Remove one object entry: the field reads as `null`.
    DropField,
    /// Insert an entry under a key no type declares.
    UnknownField,
    /// Repeat a key before its real entry, with a wrong-typed value.
    DecoyBefore,
    /// Repeat a key after its real entry, with a wrong-typed value.
    DecoyAfter,
    /// Shuffle the entries of every object.
    Reorder,
    /// Whitespace around every token.
    Whitespace,
    /// A string (a unit variant, say) written as a one-key object.
    UnitAsObject,
    /// A one-key object (a data variant, say) written as its key alone.
    VariantAsString,
    /// Drop the last element of an array.
    ShortArray,
    /// Repeat the last element of an array, or add a `null`.
    LongArray,
    /// An unsigned integer written as `n.0`, `ne0` or `n.5`.
    IntAsFloat,
    /// A key with its first character written as a `\u` escape.
    EscapedKey,
    /// Bytes after the document.
    Trailing,
    /// An integer replaced by one out of every target's range.
    OutOfRange,
}

const MUTATIONS: [Mutation; 16] = [
    Mutation::Truncate,
    Mutation::FlipByte,
    Mutation::DropField,
    Mutation::UnknownField,
    Mutation::DecoyBefore,
    Mutation::DecoyAfter,
    Mutation::Reorder,
    Mutation::Whitespace,
    Mutation::UnitAsObject,
    Mutation::VariantAsString,
    Mutation::ShortArray,
    Mutation::LongArray,
    Mutation::IntAsFloat,
    Mutation::EscapedKey,
    Mutation::Trailing,
    Mutation::OutOfRange,
];

fn choose<'a>(rng: &mut SplitMix64, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// Applies `mutations` in order to `base`: the structural ones to the
/// document, then the byte-level ones (truncation, flips, trailing
/// bytes) to its rendering.
fn mutated(base: &Doc, mutations: &[Mutation], rng: &mut SplitMix64) -> Vec<u8> {
    const DECOYS: [&str; 6] = ["\"decoy\"", "[]", "{}", "null", "-7", "1.5"];
    let mut doc = base.clone();
    let mut spaced = false;
    for &mutation in mutations {
        match mutation {
            Mutation::DropField => {
                if let Some(Doc::Object(entries)) = doc.pick(rng, is_object) {
                    entries.remove(rng.below(entries.len() as u64) as usize);
                }
            }
            Mutation::UnknownField => {
                let junk = choose(
                    rng,
                    &["{\"a\":[1,2,{\"b\":null}]}", "\"x\"", "[[[]]]", "-1.5e3", "true"],
                );
                if let Some(Doc::Object(entries)) = doc.pick(rng, |d| matches!(d, Doc::Object(_))) {
                    let at = rng.below(entries.len() as u64 + 1) as usize;
                    entries
                        .insert(at, ("\"zz_unknown\"".to_string(), Doc::Scalar(junk.to_string())));
                }
            }
            Mutation::DecoyBefore | Mutation::DecoyAfter => {
                let decoy = choose(rng, &DECOYS);
                if let Some(Doc::Object(entries)) = doc.pick(rng, is_object) {
                    let at = rng.below(entries.len() as u64) as usize;
                    let key = entries[at].0.clone();
                    let at = if matches!(mutation, Mutation::DecoyAfter) { at + 1 } else { at };
                    entries.insert(at, (key, Doc::Scalar(decoy.to_string())));
                }
            }
            Mutation::Reorder => {
                // Deepest first, so shuffling a node never moves a path
                // still to be visited.
                for path in doc.paths(is_object).into_iter().rev() {
                    if let Doc::Object(entries) = doc.at(&path) {
                        for i in (1..entries.len()).rev() {
                            entries.swap(i, rng.below(i as u64 + 1) as usize);
                        }
                    }
                }
            }
            Mutation::Whitespace => spaced = true,
            Mutation::UnitAsObject => {
                let payload = choose(rng, &["null", "1", "{}"]);
                if let Some(node) =
                    doc.pick(rng, |d| matches!(d, Doc::Scalar(t) if t.starts_with('"')))
                {
                    let Doc::Scalar(tag) = node.clone() else { unreachable!() };
                    *node = Doc::Object(vec![(tag, Doc::Scalar(payload.to_string()))]);
                }
            }
            Mutation::VariantAsString => {
                if let Some(node) = doc.pick(rng, |d| matches!(d, Doc::Object(e) if e.len() == 1)) {
                    let Doc::Object(entries) = node.clone() else { unreachable!() };
                    *node = Doc::Scalar(entries[0].0.clone());
                }
            }
            Mutation::ShortArray => {
                if let Some(Doc::Array(items)) =
                    doc.pick(rng, |d| matches!(d, Doc::Array(i) if !i.is_empty()))
                {
                    items.pop();
                }
            }
            Mutation::LongArray => {
                let null = rng.chance(0.5);
                if let Some(Doc::Array(items)) = doc.pick(rng, |d| matches!(d, Doc::Array(_))) {
                    let extra = items.last().filter(|_| !null).cloned();
                    items.push(extra.unwrap_or_else(|| Doc::Scalar("null".to_string())));
                }
            }
            Mutation::IntAsFloat => {
                let suffix = choose(rng, &[".0", ".0", "e0", ".5"]);
                if let Some(Doc::Scalar(text)) = doc.pick(rng, is_unsigned) {
                    text.push_str(suffix);
                }
            }
            Mutation::EscapedKey => {
                if let Some(Doc::Object(entries)) = doc.pick(rng, is_object) {
                    let at = rng.below(entries.len() as u64) as usize;
                    let key = &mut entries[at].0;
                    if let Some(first) =
                        key[1..].chars().next().filter(|c| c.is_ascii_alphanumeric())
                    {
                        *key = format!("\"\\u{:04x}{}", u32::from(first), &key[2..]);
                    }
                }
            }
            Mutation::OutOfRange => {
                let big = choose(rng, &["18446744073709551616", "-1", "1e400", "4294967296"]);
                if let Some(Doc::Scalar(text)) = doc.pick(rng, is_unsigned) {
                    *text = big.to_string();
                }
            }
            Mutation::Truncate | Mutation::FlipByte | Mutation::Trailing => {}
        }
    }
    let mut text = String::new();
    doc.render(&mut text, spaced);
    let mut bytes = text.into_bytes();
    for &mutation in mutations {
        match mutation {
            Mutation::Truncate => bytes.truncate(rng.below(bytes.len() as u64) as usize),
            Mutation::FlipByte if !bytes.is_empty() => {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            Mutation::Trailing => bytes
                .extend_from_slice(choose(rng, &[" ", "\n", " x", "}", ",1", "\u{0}"]).as_bytes()),
            _ => {}
        }
    }
    bytes
}

/// What a corpus input is decoded as.
#[derive(Clone, Copy, Debug)]
enum Target {
    Result,
    Chip,
    Kernel,
    /// A job frame's payload, as a child reads it.
    Request,
    /// An outcome frame's payload, as a parent reads it.
    Reply,
}

/// Decodes `bytes` as `target` and re-encodes it; `None` on an error.
fn typed_decode(target: Target, bytes: &[u8]) -> Option<String> {
    macro_rules! reencode {
        ($t:ty) => {
            serde_json::from_slice::<$t>(bytes).ok().map(|v| serde_json::to_string(&v).unwrap())
        };
    }
    match target {
        Target::Result => reencode!(PipelineResult),
        Target::Chip => reencode!(ChipSpec),
        Target::Kernel => reencode!(Kernel),
        Target::Request => reencode_payload(FrameKind::Job, bytes),
        Target::Reply => reencode_payload(FrameKind::Outcome, bytes),
    }
}

/// Decodes `bytes` as a [`Value`] and re-encodes it; `None` on an error.
fn value_decode(bytes: &[u8]) -> Option<String> {
    serde_json::from_slice::<Value>(bytes).ok().map(|v| v.to_string())
}

/// The corpus's valid encodings: catalogue and campaign results, job and
/// reply frames, both chip presets and a kernel.
fn corpus_bases() -> &'static [(&'static str, Target, Doc)] {
    static BASES: std::sync::OnceLock<Vec<(&'static str, Target, Doc)>> =
        std::sync::OnceLock::new();
    BASES.get_or_init(|| {
        let chip = ChipSpec::training();
        let pipeline = AnalysisPipeline::new(chip.clone());
        let run = |op: &dyn Operator| serde_json::to_string(&*pipeline.run(op).unwrap()).unwrap();
        let catalogue = run(OpSpec::add_relu(1 << 14).instantiate().as_ref());
        let tuned = run(OpSpec::matmul(64, 64, 64).with_flags(OptFlags::new().pp(true)).instantiate().as_ref());
        let model = &zoo::all_training()[0];
        let campaign = run(model.ops()[1].operator());
        let kernel = OpSpec::softmax(1 << 14).instantiate().build(&chip).unwrap();
        let thresholds = serde_json::to_string(&Thresholds::paper_defaults()).unwrap();
        let chip_json = serde_json::to_string(&chip).unwrap();
        let work = serde_json::to_string(&WorkSpec::op(OpSpec::layer_norm(1 << 15))).unwrap();
        let spin = serde_json::to_string(&WorkSpec::hostile(HostileMode::Spin)).unwrap();
        let grow = serde_json::to_string(&WorkSpec::hostile(HostileMode::Grow { megabytes: 64 })).unwrap();
        let buggy = serde_json::to_string(&BuggyEngine::new(7)).unwrap();
        let texts = [
            ("catalogue_result", Target::Result, catalogue.clone()),
            ("tuned_matmul_result", Target::Result, tuned),
            ("campaign_result", Target::Result, campaign),
            ("training_chip", Target::Chip, chip_json.clone()),
            ("inference_chip", Target::Chip, serde_json::to_string(&ChipSpec::inference()).unwrap()),
            ("softmax_kernel", Target::Kernel, serde_json::to_string(&kernel).unwrap()),
            (
                "hello_request",
                Target::Request,
                format!("{{\"Hello\":{{\"buggy\":{buggy},\"chip\":{chip_json},\"heartbeat_ms\":50,\"quarantine\":[7,9],\"store_path\":\"shard-0.seg\",\"thresholds\":{thresholds}}}}}"),
            ),
            (
                "job_request",
                Target::Request,
                format!("{{\"Job\":{{\"budget\":{{\"max_cycles\":1000000000.0,\"max_events\":1000000}},\"context\":12345678901234567,\"deadline_ms\":250,\"quarantine\":[5],\"work\":{work}}}}}"),
            ),
            (
                "hostile_request",
                Target::Request,
                format!("{{\"Job\":{{\"budget\":null,\"context\":3,\"deadline_ms\":null,\"quarantine\":[],\"work\":{spin}}}}}"),
            ),
            (
                "grow_request",
                Target::Request,
                format!("{{\"Job\":{{\"budget\":null,\"context\":3,\"deadline_ms\":1,\"quarantine\":[1,2,3],\"work\":{grow}}}}}"),
            ),
            (
                "ping_request",
                Target::Request,
                "{\"Job\":{\"budget\":null,\"context\":0,\"deadline_ms\":null,\"quarantine\":[4],\"work\":null}}".to_string(),
            ),
            (
                "ok_reply",
                Target::Reply,
                format!("{{\"outcome\":{{\"Ok\":{{\"result\":{catalogue}}}}},\"served_cached\":true,\"store_recovered\":3}}"),
            ),
            (
                "err_reply",
                Target::Reply,
                "{\"outcome\":{\"Err\":{\"failure\":{\"message\":\"boom \\\"é\\\"\",\"transient\":true}}},\"served_cached\":false,\"store_recovered\":0}".to_string(),
            ),
            (
                "control_reply",
                Target::Reply,
                "{\"outcome\":\"Control\",\"served_cached\":false,\"store_recovered\":0}".to_string(),
            ),
        ];
        texts
            .into_iter()
            .map(|(name, target, text)| {
                assert_eq!(typed_decode(target, text.as_bytes()).as_deref(), Some(text.as_str()), "{name}");
                (name, target, Doc::parse(&text))
            })
            .collect()
    })
}

/// Random picks of each mutation per base.
const CORPUS_PICKS: u64 = 5;

/// One line per input: its name, the digest of its bytes, and the typed
/// and the `Value` outcome, each `Err` or the digest and length of the
/// re-encoding.
fn corpus_lines() -> String {
    fn outcome(decoded: Option<String>) -> String {
        match decoded {
            Some(text) => format!("{:016x}:{}", fnv1a(text.as_bytes()), text.len()),
            None => "Err".to_string(),
        }
    }
    let mut lines = String::new();
    for (b, (name, target, doc)) in corpus_bases().iter().enumerate() {
        for (m, &mutation) in MUTATIONS.iter().enumerate() {
            for pick in 0..CORPUS_PICKS {
                let mut rng = SplitMix64::new(((b as u64) << 32) | ((m as u64) << 8) | pick);
                let input = mutated(doc, &[mutation], &mut rng);
                writeln!(
                    lines,
                    "{name}/{mutation:?}/{pick}\t{:016x}\t{}\t{}",
                    fnv1a(&input),
                    outcome(typed_decode(*target, &input)),
                    outcome(value_decode(&input)),
                )
                .unwrap();
            }
        }
    }
    lines
}

#[test]
fn mutated_encodings_decode_like_the_committed_corpus() {
    let lines = corpus_lines();
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/decode_corpus.txt");
    if std::env::var_os("ASCEND_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &lines).unwrap();
        return;
    }
    let golden =
        std::fs::read_to_string(&path).expect("tests/golden/decode_corpus.txt is committed");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(got, want, "decode outcome drifted from the committed corpus");
    }
    assert_eq!(lines.lines().count(), golden.lines().count(), "corpus size changed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_json_decodes_like_its_canonical_form(
        base in any::<usize>(),
        seed in any::<u64>(),
        picks in prop::collection::vec(0usize..MUTATIONS.len(), 1..4),
    ) {
        let bases = corpus_bases();
        let (name, target, doc) = &bases[base % bases.len()];
        let mutations: Vec<Mutation> = picks.iter().map(|&i| MUTATIONS[i]).collect();
        let input = mutated(doc, &mutations, &mut SplitMix64::new(seed));
        let typed = typed_decode(*target, &input);
        let value = serde_json::from_slice::<Value>(&input).ok();
        match value {
            None => prop_assert!(typed.is_none(), "{name}: typed decode accepted what Value refused"),
            Some(value) => {
                let canonical = value.to_string();
                // A number past f64's range reads as infinity and is
                // written as `null`: such a tree has no canonical form.
                prop_assume!(serde_json::from_str::<Value>(&canonical).ok() == Some(value));
                prop_assert_eq!(typed, typed_decode(*target, canonical.as_bytes()));
            }
        }
    }
}
