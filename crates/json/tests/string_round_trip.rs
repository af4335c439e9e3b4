//! Encode → parse round trips of JSON strings, as values and as object
//! keys, over the characters the escaper treats specially: quotes,
//! backslashes, C0 controls, DEL, line/paragraph separators, combining
//! marks and astral characters.

use fast_json::Json;
use proptest::prelude::*;

/// Strings drawn from the escaper's edge cases plus plain ASCII.
fn text() -> impl Strategy<Value = String> {
    "[a-z \"\\\\/\u{0}\u{1}\u{8}\t\n\u{b}\u{c}\r\u{1b}\u{1f}\u{7f}\u{a0}é\u{301}\u{2028}\u{2029}\u{fffd}😀\u{10ffff}]{0,12}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn string_values_round_trip(s in text()) {
        let v = Json::Str(s);
        let encoded = v.to_string();
        prop_assert_eq!(Json::parse(&encoded).unwrap(), v);
    }

    #[test]
    fn keys_and_nested_strings_round_trip(
        pairs in proptest::collection::vec((text(), text()), 0..4),
    ) {
        let v = Json::Object(
            pairs
                .into_iter()
                .map(|(k, s)| (k, Json::Array(vec![Json::Str(s), Json::Null])))
                .collect(),
        );
        prop_assert_eq!(&Json::parse(&v.to_string()).unwrap(), &v);
        prop_assert_eq!(&Json::parse(&v.pretty()).unwrap(), &v);
    }
}
