//! The JSON writer and the JSON reader hold each other to account:
//! whatever [`JsonLine`] writes, [`parse_flat_json`] reads back field
//! for field, and no prefix of a line — a dump cut short by a crash or a
//! full disk — reads as anything at all.

use moara_gateway::json::{parse_flat_json, JsonLine, JsonScalar};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Field {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl Field {
    /// What the reader must make of the field. It has one number type,
    /// and JSON has no non-finite numbers: those are written as `null`.
    fn read_back(&self) -> JsonScalar {
        match self {
            Field::Str(s) => JsonScalar::Str(s.clone()),
            Field::U64(v) => JsonScalar::Num(*v as f64),
            Field::F64(v) if v.is_finite() => JsonScalar::Num(*v),
            Field::F64(_) => JsonScalar::Null,
            Field::Bool(b) => JsonScalar::Bool(*b),
        }
    }
}

/// Characters weighted towards what an escaper and a tokenizer can get
/// wrong: the two that must be escaped, JSON's own punctuation, control
/// characters, and UTF-8 sequences of every length.
fn character() -> BoxedStrategy<char> {
    let scalar = |range: std::ops::Range<u32>| {
        range.prop_map(|c| char::from_u32(c).expect("range holds no surrogate"))
    };
    prop_oneof![
        Just('"'),
        Just('\\'),
        prop_oneof![
            Just('{'),
            Just('}'),
            Just(','),
            Just(':'),
            Just('/'),
            Just(' ')
        ],
        scalar(0x00..0x20),
        scalar(0x20..0x80),
        scalar(0x80..0x800),
        scalar(0x800..0xd800),
        scalar(0x1_0000..0x11_0000),
    ]
}

fn field() -> BoxedStrategy<Field> {
    let edge = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(0.1),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ];
    prop_oneof![
        vec(character(), 0..12).prop_map(|cs| Field::Str(cs.into_iter().collect())),
        any::<u64>().prop_map(Field::U64),
        any::<u64>().prop_map(|bits| Field::F64(f64::from_bits(bits))),
        edge.prop_map(Field::F64),
        any::<bool>().prop_map(Field::Bool),
    ]
}

/// The line [`JsonLine`] writes for `fields` under keys `k0`, `k1`, ….
fn write(fields: &[Field]) -> String {
    let mut line = JsonLine::new();
    for (i, field) in fields.iter().enumerate() {
        let key = format!("k{i}");
        line = match field {
            Field::Str(v) => line.str(&key, v),
            Field::U64(v) => line.u64(&key, *v),
            Field::F64(v) => line.f64(&key, *v),
            Field::Bool(v) => line.bool(&key, *v),
        };
    }
    line.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn what_json_line_writes_parse_flat_json_reads(fields in vec(field(), 0..6)) {
        let line = write(&fields);
        let expected: Vec<(String, JsonScalar)> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("k{i}"), f.read_back()))
            .collect();
        prop_assert_eq!(parse_flat_json(&line), Some(expected), "{}", line);
    }

    #[test]
    fn a_truncated_line_is_not_a_line(fields in vec(field(), 0..6)) {
        let line = write(&fields);
        for (cut, _) in line.char_indices() {
            prop_assert_eq!(parse_flat_json(&line[..cut]), None, "{}", &line[..cut]);
        }
    }
}
