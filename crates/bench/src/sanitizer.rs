//! §5.1 HTML sanitization: the Fig. 2 Fast program, a synthetic page
//! corpus, and a hand-written monolithic rewriter standing in for the
//! paper's HTML Purifier comparison point.

use fast_lang::Compiled;
use fast_rt::Plan;
use fast_trees::{HtmlDoc, HtmlElem, HtmlGen, Tree, TreeType};

/// The fixed Fig. 2 sanitizer program.
pub const FIG2_FIXED: &str = r#"
type HtmlE[tag: String] { nil(0), val(1), attr(2), node(3) }
lang nodeTree: HtmlE {
  node(x1, x2, x3) given (attrTree x1) (nodeTree x2) (nodeTree x3)
| nil() where (tag = "")
}
lang attrTree: HtmlE {
  attr(x1, x2) given (valTree x1) (attrTree x2)
| nil() where (tag = "")
}
lang valTree: HtmlE {
  val(x1) where (tag != "") given (valTree x1)
| nil() where (tag = "")
}
trans remScript: HtmlE -> HtmlE {
  node(x1, x2, x3) where (tag != "script")
    to (node [tag] x1 (remScript x2) (remScript x3))
| node(x1, x2, x3) where (tag = "script") to (remScript x3)
| nil() to (nil [tag])
}
trans esc: HtmlE -> HtmlE {
  node(x1, x2, x3) to (node [tag] (esc x1) (esc x2) (esc x3))
| attr(x1, x2) to (attr [tag] (esc x1) (esc x2))
| val(x1) where (tag = "'" or tag = "\"")
    to (val ["\\"] (val [tag] (esc x1)))
| val(x1) where (tag != "'" and tag != "\"")
    to (val [tag] (esc x1))
| nil() to (nil [tag])
}
def rem_esc: HtmlE -> HtmlE := (compose remScript esc)
def sani: HtmlE -> HtmlE := (restrict rem_esc nodeTree)
lang badOutput: HtmlE {
  node(x1, x2, x3) where (tag = "script")
| node(x1, x2, x3) given (badOutput x2)
| node(x1, x2, x3) given (badOutput x3)
}
def bad_inputs: HtmlE := (pre-image sani badOutput)
assert-true (is-empty bad_inputs)
"#;

/// Compiles the Fig. 2 program (verifying its assertion on the way).
///
/// # Panics
///
/// Panics if the embedded program fails to compile or verify — that would
/// be a library bug, covered by the `fig2_sanitizer` integration tests.
pub fn compile_fig2() -> Compiled {
    let c = fast_lang::compile(FIG2_FIXED).expect("Fig. 2 program compiles");
    assert!(c.report().all_passed(), "Fig. 2 assertion holds");
    c
}

/// The §5.1 corpus: 10 documents with rendered sizes from 20 KB to
/// ~400 KB (the paper's Bing-to-Facebook range), seeded.
pub fn corpus(seed: u64) -> Vec<HtmlDoc> {
    let sizes = [
        20_000, 40_000, 70_000, 100_000, 140_000, 180_000, 230_000, 280_000, 340_000, 409_000,
    ];
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| HtmlGen::new(seed.wrapping_add(i as u64)).doc_of_size(s))
        .collect()
}

/// Compiles the Fig. 2 `sani` transducer into a `fast-rt` evaluation
/// plan — the batch-mode entry point for the sanitizer workload.
///
/// # Panics
///
/// Panics if the embedded program stops exposing `sani` (a library bug).
pub fn plan_fig2(compiled: &Compiled) -> Plan {
    Plan::compile(compiled.transducer("sani").expect("sani is defined"))
}

/// Encodes the corpus and repeats it `reps` times. The repeats are
/// `Tree` clones of the first round — `Arc`-shared, same `TreeId` —
/// modeling a sanitization service that sees the same pages over and
/// over (the batch runtime's memo answers repeats without re-running).
pub fn encoded_batch(ty: &TreeType, docs: &[HtmlDoc], reps: usize) -> Vec<Tree> {
    let encoded: Vec<Tree> = docs.iter().map(|d| d.encode(ty)).collect();
    let mut batch = Vec::with_capacity(encoded.len() * reps.max(1));
    for _ in 0..reps.max(1) {
        batch.extend(encoded.iter().cloned());
    }
    batch
}

/// The hand-written "monolithic" sanitizer baseline: removes `script`
/// subtrees and escapes `'` and `"` in attribute values in one recursive
/// pass, mirroring `sani`'s semantics on decoded documents.
pub fn baseline_sanitize(doc: &HtmlDoc) -> HtmlDoc {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            if c == '\'' || c == '"' {
                out.push('\\');
            }
            out.push(c);
        }
        out
    }
    fn elem(e: &HtmlElem) -> Option<HtmlElem> {
        if e.tag == "script" {
            return None;
        }
        Some(HtmlElem {
            tag: e.tag.clone(),
            attrs: e
                .attrs
                .iter()
                .map(|(n, v)| (n.clone(), escape(v)))
                .collect(),
            children: e.children.iter().filter_map(elem).collect(),
        })
    }
    HtmlDoc {
        roots: doc.roots.iter().filter_map(elem).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_spans_the_paper_size_range() {
        let docs = corpus(1);
        assert_eq!(docs.len(), 10);
        let first = docs[0].render().len();
        let last = docs[9].render().len();
        assert!(first >= 20_000);
        assert!(last >= 409_000);
        assert!(first < last);
    }

    /// Parsing a corpus page's rendered text returns the very tree
    /// `HtmlDoc::encode` built: the parser's borrowed-key lookups and
    /// the encoder's `Tree::new` calls meet on the same canonical nodes.
    #[test]
    fn reparsed_corpus_page_is_the_encoded_tree() {
        let ty = fast_trees::html_type();
        let doc = &corpus(1)[0];
        let encoded = doc.encode(&ty);
        let text = encoded.display(&ty).to_string();
        let parsed = Tree::parse(&ty, &text).unwrap();
        assert_eq!(parsed.id(), encoded.id());
        assert!(parsed.ptr_eq(&encoded));
        assert_eq!(parsed.display(&ty).to_string(), text);
    }

    #[test]
    fn fast_sanitizer_matches_baseline_on_corpus_sample() {
        let c = compile_fig2();
        let ty = c.tree_type("HtmlE").unwrap().clone();
        // A small document keeps the test fast; the benchmark binary
        // covers the full corpus.
        let doc = HtmlGen::new(5).doc_of_size(3_000);
        let encoded = doc.encode(&ty);
        let out = c.apply("sani", &encoded).unwrap();
        assert_eq!(out.len(), 1);
        let fast_result = HtmlDoc::decode(&ty, &out[0]).unwrap();
        assert_eq!(fast_result, baseline_sanitize(&doc));
    }

    #[test]
    fn baseline_removes_scripts_and_escapes() {
        let doc = HtmlDoc::new(vec![HtmlElem::new("div")
            .with_attr("id", "a\"b")
            .with_child(HtmlElem::new("script"))
            .with_child(HtmlElem::new("p"))]);
        let out = baseline_sanitize(&doc);
        assert_eq!(out.roots[0].attrs[0].1, "a\\\"b");
        assert_eq!(out.roots[0].children.len(), 1);
        assert_eq!(out.roots[0].children[0].tag, "p");
    }
}
