//! Properties of the global hash-cons table (`fast_trees::intern`):
//!
//! * **identity-by-construction** — structurally equal trees built
//!   through *independent* code paths (direct construction, a parse of
//!   the printed form, the seeded generator, the HTML encoder) intern
//!   to the same [`TreeId`] and share the canonical allocation;
//! * **injectivity** — structurally distinct trees never share an id;
//! * **thread safety** — concurrent threads racing to intern the same
//!   structures agree on every id, and the winning canonical node is
//!   shared by all of them.

use fast_smt::{Label, LabelSig, Sort, Value};
use fast_trees::{html_type, HtmlDoc, HtmlElem, HtmlGen, Tree, TreeGen, TreeType};
use proptest::prelude::*;
use std::sync::Arc;

fn mixed_type() -> Arc<TreeType> {
    TreeType::new(
        "M",
        LabelSig::new(vec![
            ("n".into(), Sort::Int),
            ("s".into(), Sort::Str),
            ("b".into(), Sort::Bool),
        ]),
        vec![("z", 0), ("u", 1), ("p", 2)],
    )
}

/// Strings over quotes, backslashes, control characters, a combining
/// mark and non-ASCII: every escape path of the renderer and parser.
const TEXT: &str = "[a-z\"'\\\\\u{0}\t\n\r\u{7f}\u{301}\u{a0}\u{2028}é😀]{0,5}";

fn label() -> impl Strategy<Value = Label> {
    (-1000i64..1000, TEXT, any::<bool>())
        .prop_map(|(n, s, b)| Label::new(vec![Value::Int(n), Value::Str(s), Value::Bool(b)]))
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

/// A tree's structure, not yet interned, so that either the parser or
/// `Tree::new` can be the first to build it.
#[derive(Debug)]
struct Shape {
    ctor: &'static str,
    label: Label,
    kids: Vec<Shape>,
}

impl Shape {
    fn build(&self, ty: &TreeType) -> Tree {
        let kids = self.kids.iter().map(|k| k.build(ty)).collect();
        Tree::new(ty.ctor_id(self.ctor).unwrap(), self.label.clone(), kids)
    }

    /// The `Tree::display` text, written out from the shape.
    fn render(&self) -> String {
        let kids: Vec<String> = self.kids.iter().map(Shape::render).collect();
        let kids = if kids.is_empty() {
            String::new()
        } else {
            format!("({})", kids.join(", "))
        };
        format!("{}{}{kids}", self.ctor, self.label)
    }

    /// The same shape with `n` as every node's integer field.
    fn with_n(&self, n: i64) -> Shape {
        let mut values = self.label.values().to_vec();
        values[0] = Value::Int(n);
        Shape {
            ctor: self.ctor,
            label: Label::new(values),
            kids: self.kids.iter().map(|k| k.with_n(n)).collect(),
        }
    }
}

fn shape() -> impl Strategy<Value = Shape> {
    let leaf = label().prop_map(|label| Shape {
        ctor: "z",
        label,
        kids: vec![],
    });
    leaf.prop_recursive(5, 40, 2, |inner| {
        prop_oneof![
            (label(), inner.clone()).prop_map(|(label, c)| Shape {
                ctor: "u",
                label,
                kids: vec![c],
            }),
            (label(), inner.clone(), inner).prop_map(|(label, a, b)| Shape {
                ctor: "p",
                label,
                kids: vec![a, b],
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Tree::parse` of the rendered text is the node `Tree::new`
    /// builds, whichever of the two interns the structure first. An
    /// integer field outside the generator's range, set on every node,
    /// makes each case's nodes new to the table, so both orders run in
    /// full.
    #[test]
    fn parser_and_builder_meet_whichever_goes_first(
        (s, n) in (shape(), 1_000_000i64..i64::MAX),
    ) {
        let ty = mixed_type();
        // Built first, parsed second.
        let first = s.with_n(n);
        let built = first.build(&ty);
        let parsed = Tree::parse(&ty, &first.render()).unwrap();
        prop_assert!(parsed.ptr_eq(&built));
        // Parsed first, built second.
        let second = s.with_n(-n);
        let text = second.render();
        let parsed = Tree::parse(&ty, &text).unwrap();
        let built = second.build(&ty);
        prop_assert!(parsed.ptr_eq(&built));
        prop_assert_eq!(parsed.id(), built.id());
        prop_assert_eq!(built.display(&ty).to_string(), text);
    }

    /// Parsing the printed form rebuilds the tree node by node through
    /// a completely different code path — yet every subtree must land
    /// on the same canonical id and allocation.
    #[test]
    fn parse_of_printed_form_interns_to_same_id(t in tree()) {
        let ty = mixed_type();
        let printed = t.display(&ty).to_string();
        let reparsed = Tree::parse(&ty, &printed).unwrap();
        prop_assert_eq!(t.id(), reparsed.id());
        prop_assert!(t.ptr_eq(&reparsed));
        // Recursively: every subtree pair agrees too.
        for (a, b) in t.iter().zip(reparsed.iter()) {
            prop_assert_eq!(a.id(), b.id());
        }
    }

    /// Two independently built trees share an id **iff** they are
    /// structurally equal (injectivity in both directions).
    #[test]
    fn ids_coincide_iff_structurally_equal(a in tree(), b in tree()) {
        let ty = mixed_type();
        let same_structure =
            a.display(&ty).to_string() == b.display(&ty).to_string();
        prop_assert_eq!(a.id() == b.id(), same_structure);
    }
}

/// The seeded generator and a parse of its output — third and fourth
/// construction paths — also converge, on trees with richer labels
/// (ints, strings with escapes, bools).
#[test]
fn generator_and_parser_converge() {
    let ty = mixed_type();
    let mut g = TreeGen::new(42).with_max_depth(6).with_int_range(-50, 50);
    for t in g.trees(&ty, 40) {
        let back = Tree::parse(&ty, &t.display(&ty).to_string()).unwrap();
        assert_eq!(t.id(), back.id());
        assert!(t.ptr_eq(&back));
    }
}

/// The HTML encoder (Fig. 3) is a fifth construction path: encoding the
/// same document twice from scratch yields the same interned tree, and
/// a shared fragment appearing under two different parents interns once.
#[test]
fn html_encoding_interns_deterministically() {
    let ty = html_type();
    let mut g = HtmlGen::new(7);
    for _ in 0..10 {
        let doc = g.doc_of_size(512);
        let e1 = doc.encode(&ty);
        let e2 = doc.encode(&ty);
        assert_eq!(e1.id(), e2.id());
        assert!(e1.ptr_eq(&e2));
    }
    // One fragment, two parents: the subtree for `frag` is the same
    // canonical node in both encodings.
    let frag = HtmlElem::new("span").with_attr("class", "x");
    let d1 = HtmlDoc::new(vec![HtmlElem::new("div").with_child(frag.clone())]);
    let d2 = HtmlDoc::new(vec![HtmlElem::new("p").with_child(frag)]);
    let (t1, t2) = (d1.encode(&ty), d2.encode(&ty));
    assert_ne!(t1.id(), t2.id());
    // div[...](span-subtree, ...) vs p[...](span-subtree, ...): find the
    // shared span node by scanning both trees for equal subtrees.
    let shared = t1
        .iter()
        .any(|a| t2.iter().any(|b| a.id() == b.id() && a.size() > 1));
    assert!(shared, "the common fragment must intern to one node");
}

/// Threads racing to intern the same structures must agree on every id;
/// distinct structures must get distinct ids even under contention.
#[test]
fn concurrent_interning_is_consistent() {
    let ty = mixed_type();
    let z = ty.ctor_id("z").unwrap();
    let u = ty.ctor_id("u").unwrap();
    const THREADS: usize = 8;
    const CHAINS: i64 = 64;

    // Each thread builds the same CHAINS unary chains (depth = seed)
    // from scratch and reports their root ids.
    let build = |seed: i64| -> Tree {
        let mut t = Tree::leaf(
            z,
            Label::new(vec![
                Value::Int(seed),
                Value::Str(String::new()),
                Value::Bool(false),
            ]),
        );
        for d in 0..(seed % 17) + 1 {
            t = Tree::new(
                u,
                Label::new(vec![
                    Value::Int(d),
                    Value::Str("x".into()),
                    Value::Bool(d % 2 == 0),
                ]),
                vec![t],
            );
        }
        t
    };

    let ids: Vec<Vec<(fast_trees::TreeId, Tree)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..CHAINS)
                        .map(|s| {
                            let t = build(s);
                            (t.id(), t)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All threads agree with thread 0, and share its allocations.
    for per_thread in &ids[1..] {
        for (i, (id, t)) in per_thread.iter().enumerate() {
            assert_eq!(*id, ids[0][i].0, "chain {i}: divergent ids across threads");
            assert!(
                t.ptr_eq(&ids[0][i].1),
                "chain {i}: duplicate canonical node"
            );
        }
    }
    // Distinct structures stay distinct.
    let mut sorted: Vec<u64> = ids[0].iter().map(|(id, _)| id.as_u64()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        CHAINS as usize,
        "distinct chains shared an id"
    );
}
