//! The decode rules of the vendored JSON layer, one table row per rule.
//!
//! Every derived type decodes by the same rules: unknown keys are skipped,
//! the first of duplicate keys wins, absent fields are an error unless
//! `#[serde(default)]`, a value of the wrong type is an error, enums come as
//! a variant-name string or a one-entry `{"Variant": payload}` object, `null`
//! reads as NaN into a float, integers read into floats, and nesting deeper
//! than `serde_json::MAX_DEPTH` is an error even inside a skipped value.
//! Each row asserts whether the decode succeeds and, if so, what it yields.

use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Rules {
    id: u32,
    ratio: Option<f64>,
    #[serde(default)]
    tags: Vec<u8>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Line,
    Scaled(f64),
    Rgb(u8, u8, u8),
    Labeled { name: String, weight: i32 },
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u16, bool);

fn rules(id: u32, ratio: Option<f64>, tags: &[u8]) -> Rules {
    Rules {
        id,
        ratio,
        tags: tags.to_vec(),
    }
}

/// Decodes every `(json, expected)` row; `None` means the decode must fail.
fn check<T: Deserialize + PartialEq + Debug>(table: &[(&str, Option<T>)]) {
    for (json, expected) in table {
        let got = serde_json::from_str::<T>(json).ok();
        assert_eq!(&got, expected, "decoding {json}");
    }
}

/// A float row compares bit patterns, so NaN and `-0.0` are exact.
fn check_f64(table: &[(&str, Option<f64>)]) {
    for (json, expected) in table {
        let got = serde_json::from_str::<f64>(json).ok().map(f64::to_bits);
        assert_eq!(got, expected.map(f64::to_bits), "decoding {json}");
    }
}

#[test]
fn unknown_keys_are_skipped_and_the_first_duplicate_wins() {
    check(&[
        (r#"{"id":1,"ratio":0.5}"#, Some(rules(1, Some(0.5), &[]))),
        // An unknown key of any shape is skipped, wherever it sits.
        (
            r#"{"zz":{"a":[1,{"b":null}]},"id":1,"yy":"x","ratio":null,"xx":-2.5e3}"#,
            Some(rules(1, None, &[])),
        ),
        // The first occurrence of a key wins; later ones are checked as JSON
        // but not as the field's type.
        (r#"{"id":1,"id":2,"ratio":null}"#, Some(rules(1, None, &[]))),
        (
            r#"{"id":1,"ratio":null,"id":"two"}"#,
            Some(rules(1, None, &[])),
        ),
        (r#"{"id":1,"ratio":null,"id":[}"#, None),
        (
            r#"{"tags":[3],"id":7,"tags":"no","ratio":1}"#,
            Some(rules(7, Some(1.0), &[3])),
        ),
    ]);
}

#[test]
fn missing_fields_defaults_and_wrong_types() {
    check(&[
        // `ratio` is an Option but not `default`: its key is still required.
        (r#"{"id":1}"#, None),
        (r#"{"ratio":null}"#, None),
        (
            r#"{"id":1,"ratio":null,"tags":[1,2]}"#,
            Some(rules(1, None, &[1, 2])),
        ),
        (r#"{"id":1,"ratio":null,"tags":null}"#, None),
        (r#"{"id":"1","ratio":null}"#, None),
        (r#"{"id":-1,"ratio":null}"#, None),
        (r#"{"id":1.0,"ratio":null}"#, None),
        (r#"{"id":4294967296,"ratio":null}"#, None),
        (r#"{"id":1,"ratio":true}"#, None),
        (r#"{"id":1,"ratio":null,"tags":[256]}"#, None),
        (r#"[1,null]"#, None),
        ("null", None),
    ]);
}

#[test]
fn enums_come_as_a_name_or_a_one_entry_object() {
    check(&[
        (r#""Dot""#, Some(Shape::Dot)),
        (r#""Line""#, Some(Shape::Line)),
        (r#"{"Scaled":2}"#, Some(Shape::Scaled(2.0))),
        (r#"{"Rgb":[1,2,3]}"#, Some(Shape::Rgb(1, 2, 3))),
        (
            r#"{"Labeled":{"weight":-4,"extra":0,"name":"n"}}"#,
            Some(Shape::Labeled {
                name: "n".into(),
                weight: -4,
            }),
        ),
        (r#""Circle""#, None),
        // A unit variant in object form and a data variant by name are both
        // refused.
        (r#"{"Dot":null}"#, None),
        (r#""Scaled""#, None),
        (r#"{"Scaled":1,"Dot":null}"#, None),
        (r#"{}"#, None),
        (r#"{"Rgb":[1,2]}"#, None),
        (r#"{"Rgb":[1,2,3,4]}"#, None),
        (r#"{"Labeled":{"name":"n"}}"#, None),
        (r#"3"#, None),
    ]);
    // A unit struct reads any value, as it always has.
    check(&[
        (r#""Marker""#, Some(Marker)),
        (r#"{"any":[1,2]}"#, Some(Marker)),
        (r#"[}"#, None),
    ]);
    check(&[
        (r#"[7,true]"#, Some(Pair(7, true))),
        (r#"[7]"#, None),
        (r#"[7,true,1]"#, None),
    ]);
}

#[test]
fn numbers_null_and_wide_integers_read_into_floats() {
    check_f64(&[
        ("null", Some(f64::NAN)),
        ("3", Some(3.0)),
        ("-3", Some(-3.0)),
        ("-0", Some(0.0)),
        ("-0.0", Some(-0.0)),
        ("1e3", Some(1000.0)),
        ("0.1", Some(0.1)),
        ("18446744073709551615", Some(u64::MAX as f64)),
        // Wider than 64 bits: read as a float, never an error.
        (
            "123456789012345678901234567890",
            Some(1.2345678901234568e29),
        ),
        ("-9223372036854775809", Some(-9.223372036854776e18)),
        ("\"3\"", None),
        ("true", None),
        ("-", None),
        ("1.2.3", None),
    ]);
    check(&[
        ("18446744073709551615", Some(u64::MAX)),
        ("18446744073709551616", None),
        ("-1", None),
        ("1e2", None),
        // Leading zeros have always been tolerated.
        ("007", Some(7)),
    ]);
    check(&[
        ("-9223372036854775808", Some(i64::MIN)),
        ("-9223372036854775809", None),
        ("9223372036854775808", None),
    ]);
    check(&[("null", Some(None::<u8>)), ("5", Some(Some(5u8)))]);
}

#[test]
fn strings_and_value_integers() {
    check(&[
        (
            r#""a\"b\\c\/d\n\t\r\b\f""#,
            Some("a\"b\\c/d\n\t\r\u{8}\u{c}".to_string()),
        ),
        (r#""é\u0000""#, Some("é\u{0}".to_string())),
        // A lone surrogate becomes the replacement character.
        (r#""\ud800""#, Some("\u{fffd}".to_string())),
        (r#""\x""#, None),
        (r#""\u12""#, None),
        (r#""open"#, None),
    ]);
    check(&[
        ("-0", Some(Value::I64(0))),
        ("0", Some(Value::U64(0))),
        ("1.0", Some(Value::F64(1.0))),
        ("1e2", Some(Value::F64(100.0))),
        ("-12", Some(Value::I64(-12))),
        (
            r#"{"k":1,"k":2}"#,
            Some(Value::Map(vec![
                ("k".into(), Value::U64(1)),
                ("k".into(), Value::U64(2)),
            ])),
        ),
    ]);
}

#[test]
fn trailing_characters_are_an_error_and_whitespace_is_not() {
    check(&[
        (
            " \n{\"id\":1,\"ratio\":null}\t\r\n ",
            Some(rules(1, None, &[])),
        ),
        (r#"{"id":1,"ratio":null} x"#, None),
        (r#"{"id":1,"ratio":null}}"#, None),
        (r#"{"id":1,"ratio":null,}"#, None),
        (r#"{"id":1 "ratio":null}"#, None),
        ("", None),
    ]);
    check(&[("1", Some(1u64)), ("1 2", None), ("[1,]", None)]);
}

#[test]
fn the_depth_cap_covers_skipped_values() {
    let cap = serde_json::MAX_DEPTH;
    // The struct itself is one level, so a skipped value may nest cap - 1.
    let skipped = |depth: usize| {
        format!(
            r#"{{"id":1,"deep":{}{},"ratio":null}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    check(&[
        (skipped(cap - 1).as_str(), Some(rules(1, None, &[]))),
        (skipped(cap).as_str(), None),
    ]);
    // The same inside a field that is read, and inside an unknown variant
    // payload's sibling.
    let nested_tags = format!(
        r#"{{"id":1,"ratio":null,"tags":{}[]{}}}"#,
        "[".repeat(cap - 1),
        "]".repeat(cap - 1)
    );
    check::<Rules>(&[(nested_tags.as_str(), None)]);
    let unit = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    check(&[
        (unit(cap).as_str(), Some(Marker)),
        (unit(cap + 1).as_str(), None),
    ]);
}
