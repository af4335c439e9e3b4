//! Property-based tests: s-expression round-trips, HTML encode/decode
//! round-trips, and structural invariants of generated trees.

use fast_smt::{Label, LabelSig, Sort, Value};
use fast_trees::{html_type, HtmlDoc, HtmlElem, Tree, TreeType};
use proptest::prelude::*;
use std::sync::Arc;

fn mixed_type() -> Arc<TreeType> {
    TreeType::new(
        "M",
        LabelSig::new(vec![
            ("n".into(), Sort::Int),
            ("s".into(), Sort::Str),
            ("b".into(), Sort::Bool),
            ("c".into(), Sort::Char),
        ]),
        vec![("z", 0), ("u", 1), ("p", 2)],
    )
}

/// A character class of what rendering must take care with: quotes and
/// backslashes, control characters (`{:?}` writes `\n`, `\r`, `\t`,
/// `\0` or `\u{…}`), a combining mark, non-ASCII whitespace and a
/// format character (U+00A0, U+2028, U+FEFF), and printable non-ASCII
/// that passes raw.
macro_rules! tricky {
    () => {
        "[a-z \"'\\\\\u{0}\u{1}\u{7}\t\n\r\u{1b}\u{7f}\u{301}\u{a0}\u{2028}\u{feff}é😀]"
    };
}

fn label() -> impl Strategy<Value = Label> {
    let one_char = tricky!().prop_map(|c| c.chars().next().unwrap());
    (
        -1000i64..1000,
        concat!(tricky!(), "{0,6}"),
        any::<bool>(),
        one_char,
    )
        .prop_map(|(n, s, b, c)| {
            Label::new(vec![
                Value::Int(n),
                Value::Str(s),
                Value::Bool(b),
                Value::Char(c),
            ])
        })
}

fn tree() -> impl Strategy<Value = Tree> {
    let ty = mixed_type();
    let z = ty.ctor_id("z").unwrap();
    let u = ty.ctor_id("u").unwrap();
    let p = ty.ctor_id("p").unwrap();
    let leaf = label().prop_map(move |l| Tree::leaf(z, l));
    leaf.prop_recursive(5, 40, 2, move |inner| {
        prop_oneof![
            (label(), inner.clone()).prop_map(move |(l, c)| Tree::new(u, l, vec![c])),
            (label(), inner.clone(), inner)
                .prop_map(move |(l, a, b)| { Tree::new(p, l, vec![a, b]) }),
        ]
    })
}

fn html_elem() -> impl Strategy<Value = HtmlElem> {
    let name = "[a-z]{1,6}";
    let value = "[ -~]{0,8}"; // printable ASCII incl. quotes/backslashes
    let leaf =
        (name, proptest::collection::vec(("[a-z]{1,4}", value), 0..3)).prop_map(|(tag, attrs)| {
            let mut e = HtmlElem::new(&tag);
            for (n, v) in attrs {
                e = e.with_attr(&n, &v);
            }
            e
        });
    leaf.prop_recursive(3, 12, 3, |inner| {
        ("[a-z]{1,6}", proptest::collection::vec(inner, 0..3)).prop_map(|(tag, kids)| {
            let mut e = HtmlElem::new(&tag);
            for k in kids {
                e = e.with_child(k);
            }
            e
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Display → parse is the identity on trees (all label sorts, and
    /// every escape the renderer emits).
    #[test]
    fn sexpr_round_trip(t in tree()) {
        let ty = mixed_type();
        let printed = t.display(&ty).to_string();
        let back = Tree::parse(&ty, &printed)
            .unwrap_or_else(|e| panic!("{e}\n--- printed ---\n{printed}"));
        prop_assert_eq!(back, t);
    }

    /// Generated trees conform and size/depth behave.
    #[test]
    fn structural_invariants(t in tree()) {
        let ty = mixed_type();
        prop_assert!(t.conforms_to(&ty));
        prop_assert!(t.depth() <= t.size());
        prop_assert_eq!(t.iter().count(), t.size());
    }

    /// HTML documents survive encode → decode (Fig. 3 encoding is a
    /// bijection on well-formed documents).
    #[test]
    fn html_round_trip(roots in proptest::collection::vec(html_elem(), 0..3)) {
        let doc = HtmlDoc::new(roots);
        let ty = html_type();
        let encoded = doc.encode(&ty);
        prop_assert!(encoded.conforms_to(&ty));
        let back = HtmlDoc::decode(&ty, &encoded).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// Encoding size is linear-ish: nodes ≥ elements, and each attr/text
    /// character costs exactly one `val` node.
    #[test]
    fn html_encoding_size(roots in proptest::collection::vec(html_elem(), 0..3)) {
        let doc = HtmlDoc::new(roots);
        let ty = html_type();
        let encoded = doc.encode(&ty);
        fn count(e: &HtmlElem) -> (usize, usize, usize) {
            // (elements, attrs, value chars)
            let mut el = 1;
            let mut at = e.attrs.len();
            let mut ch: usize = e.attrs.iter().map(|(_, v)| v.chars().count()).sum();
            for c in &e.children {
                let (a, b, d) = count(c);
                el += a;
                at += b;
                ch += d;
            }
            (el, at, ch)
        }
        let (el, at, ch) = doc.roots.iter().map(count).fold(
            (0, 0, 0),
            |(a, b, c), (x, y, z)| (a + x, b + y, c + z),
        );
        let c = fast_trees::HtmlCtors::resolve(&ty);
        let nodes = encoded.iter().filter(|n| n.ctor() == c.node).count();
        let attrs = encoded.iter().filter(|n| n.ctor() == c.attr).count();
        let vals = encoded.iter().filter(|n| n.ctor() == c.val).count();
        prop_assert_eq!(nodes, el);
        prop_assert_eq!(attrs, at);
        prop_assert_eq!(vals, ch);
    }
}
