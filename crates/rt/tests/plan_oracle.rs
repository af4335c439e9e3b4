//! Differential oracle: `Plan::run_batch` must agree with the reference
//! interpreter `Sttr::run` on every item — outputs as multisets, errors
//! included — for randomly generated transducers (nondeterministic,
//! guarded, with regular lookahead) over random batches. A second
//! property pins that the shared memo table is semantically invisible:
//! memo on and memo off produce identical results, even when the batch
//! contains cloned (`Arc`-shared) items engineered to hit the memo.
//!
//! The generated transducers cover every shape the evaluator
//! distinguishes: lookahead requirements of several states at once,
//! lookahead automata past 64 states (the spilled words of the state
//! bitset), bare `Out::Call` rules that delete a node (like Fig. 7's
//! `filter_ev`), and overlapping rules emitting equal outputs (the
//! deduplication of output sets).

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError};
use fast_rt::{Plan, RunOptions};
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

// ---------- strategies (BT: binary trees with an Int label) ----------

fn bt() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

fn int_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![Just(Term::field(0)), (-10i64..10).prop_map(Term::int)];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner, 2u32..8).prop_map(|(a, m)| a.modulo(m)),
        ]
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    let atom = (cmp_op(), int_term(), int_term()).prop_map(|(op, a, b)| Formula::cmp(op, a, b));
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::not),
        ]
    })
}

fn bt_tree() -> impl Strategy<Value = Tree> {
    let (ty, _) = bt();
    let leaf_id = ty.ctor_id("L").unwrap();
    let node_id = ty.ctor_id("N").unwrap();
    let leaf = (-8i64..8).prop_map(move |v| Tree::leaf(leaf_id, Label::single(v)));
    leaf.prop_recursive(4, 24, 2, move |inner| {
        ((-8i64..8), inner.clone(), inner)
            .prop_map(move |(v, a, b)| Tree::new(node_id, Label::single(v), vec![a, b]))
    })
}

/// A random lookahead STA over BT with `states` states: per state one
/// guarded leaf rule and one node rule pointing at random child states
/// (the root suite's `bt_sta` shape), about half of the children left
/// unconstrained. Leaf guards come from `guard`.
fn sta_over(
    states: std::ops::Range<usize>,
    guard: BoxedStrategy<Formula>,
) -> impl Strategy<Value = Sta> {
    states.prop_flat_map(move |n| {
        let guards = proptest::collection::vec(guard.clone(), n);
        // A child index `n` or more leaves that child unconstrained.
        let kids = proptest::collection::vec((0..2 * n, 0..2 * n), n);
        (guards, kids).prop_map(move |(guards, kids)| {
            let (ty, alg) = bt();
            let leaf = ty.ctor_id("L").unwrap();
            let node = ty.ctor_id("N").unwrap();
            let mut b = StaBuilder::new(ty, alg);
            let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("l{i}"))).collect();
            for i in 0..n {
                b.leaf_rule(states[i], leaf, guards[i].clone());
                let kid = |k: usize| states.get(k).copied();
                b.simple_rule(
                    states[i],
                    node,
                    Formula::True,
                    vec![kid(kids[i].0), kid(kids[i].1)],
                );
            }
            b.build(states[0])
        })
    })
}

/// A small lookahead STA: 1–3 states with arbitrary leaf guards.
fn bt_sta() -> impl Strategy<Value = Sta> {
    sta_over(1..4, formula().boxed())
}

/// A lookahead STA past 64 states, so state sets spill beyond the
/// bitset's inline word. Leaf guards are ⊤ or a single residue test,
/// cheap enough for the reference interpreter to run every state.
fn wide_sta() -> impl Strategy<Value = Sta> {
    let residue = (2i64..5, 0i64..5).prop_map(|(m, r)| {
        Formula::cmp(CmpOp::Eq, Term::field(0).modulo(m as u32), Term::int(r % m))
    });
    sta_over(65..80, prop_oneof![Just(Formula::True), residue].boxed())
}

/// One generated node rule: guard, label function, the two child calls
/// (which transformation state reads which input child), the per-child
/// lookahead requirements, and whether the rule is a bare call to its
/// first child (deleting the node, like Fig. 7's `filter_ev`).
type NodeRuleSpec = (
    (Formula, Term),
    (usize, usize),
    (usize, usize),
    (BTreeSet<usize>, BTreeSet<usize>),
    bool,
);

/// Per-state generated rule sets, as produced by the strategies below.
type LeafRules = Vec<Vec<(Formula, Term)>>;
type NodeRules = Vec<Vec<NodeRuleSpec>>;

/// A random STTR over BT with lookahead automaton `la`: 1–2
/// transformation states, each with 1–2 guarded leaf rules and 1–2 node
/// rules (overlapping guards make the transducer nondeterministic).
/// Node rules carry random lookahead sets of up to three states per
/// child (empty = unconstrained), and some are bare calls. A state
/// flagged in `dup` also gets an unguarded copy of its first node rule,
/// so every node the original fires on yields the same output twice.
fn sttr_with(la: Sta) -> impl Strategy<Value = Sttr> {
    let la_n = la.state_count();
    (1usize..3).prop_flat_map(move |n| {
        let la = la.clone();
        // Half the members come from the top eight states, so a wide
        // automaton's spilled states are well represented.
        let la_set = move || {
            let member = prop_oneof![0..la_n, la_n.saturating_sub(8)..la_n];
            proptest::collection::vec(member, 0..4)
                .prop_map(|v| v.into_iter().collect::<BTreeSet<usize>>())
        };
        let leaf_rules =
            proptest::collection::vec(proptest::collection::vec((formula(), int_term()), 1..3), n);
        let node_rules = proptest::collection::vec(
            proptest::collection::vec(
                (
                    (formula(), int_term()),
                    (0..n, 0..n),
                    (0usize..2, 0usize..2),
                    (la_set(), la_set()),
                    (0u32..4).prop_map(|k| k == 0),
                ),
                1..3,
            ),
            n,
        );
        let dup = proptest::collection::vec((0u32..3).prop_map(|k| k == 0), n);
        (leaf_rules, node_rules, dup).prop_map(
            move |(leaf_rules, node_rules, dup): (LeafRules, NodeRules, Vec<bool>)| {
                let (ty, alg) = bt();
                let leaf = ty.ctor_id("L").unwrap();
                let node = ty.ctor_id("N").unwrap();
                let mut b = SttrBuilder::new(ty, alg).with_lookahead(la.clone());
                let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("q{i}"))).collect();
                for (i, rules) in leaf_rules.into_iter().enumerate() {
                    for (guard, fun) in rules {
                        b.plain_rule(
                            states[i],
                            leaf,
                            guard,
                            Out::node(leaf, LabelFn::new(vec![fun]), vec![]),
                        );
                    }
                }
                let la_set = |ix: BTreeSet<usize>| -> BTreeSet<StateId> {
                    ix.into_iter().map(StateId).collect()
                };
                for (i, rules) in node_rules.into_iter().enumerate() {
                    let mut first = None;
                    for ((guard, fun), (qa, qb), (ca, cb), (lx, ly), bare) in rules {
                        let out = if bare {
                            Out::Call(states[qa], ca)
                        } else {
                            Out::node(
                                node,
                                LabelFn::new(vec![fun]),
                                vec![Out::Call(states[qa], ca), Out::Call(states[qb], cb)],
                            )
                        };
                        let lookahead = vec![la_set(lx), la_set(ly)];
                        first.get_or_insert_with(|| (lookahead.clone(), out.clone()));
                        b.rule(states[i], node, guard, lookahead, out);
                    }
                    if let (true, Some((lookahead, out))) = (dup[i], first) {
                        b.rule(states[i], node, Formula::True, lookahead, out);
                    }
                }
                b.build(states[0])
            },
        )
    })
}

/// [`sttr_with`] over a small lookahead automaton.
fn bt_sttr() -> impl Strategy<Value = Sttr> {
    bt_sta().prop_flat_map(sttr_with)
}

/// [`sttr_with`] over a lookahead automaton of more than 64 states.
fn wide_sttr() -> impl Strategy<Value = Sttr> {
    wide_sta().prop_flat_map(sttr_with)
}

/// A batch that deliberately repeats items: `picks` indexes into the
/// distinct trees, so clones (`Arc`-shared, same `TreeId`) appear —
/// the scenario the shared memo exists for.
fn bt_batch() -> impl Strategy<Value = Vec<Tree>> {
    (proptest::collection::vec(bt_tree(), 1..4)).prop_flat_map(|distinct| {
        let n = distinct.len();
        proptest::collection::vec(0..n, 1..7)
            .prop_map(move |picks| picks.into_iter().map(|i| distinct[i].clone()).collect())
    })
}

/// Canonical form for multiset comparison (both sides also dedup, so
/// this is belt and braces — any order difference is erased).
fn canon(r: Result<Vec<Tree>, TransducerError>) -> Result<Vec<Tree>, TransducerError> {
    r.map(|mut v| {
        v.sort();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Plan::run_batch` item-for-item agrees with the reference
    /// interpreter, errors included.
    #[test]
    fn plan_batch_agrees_with_sttr_run(s in bt_sttr(), batch in bt_batch()) {
        let plan = Plan::compile(&s);
        let got = plan.run_batch(&batch);
        prop_assert_eq!(got.len(), batch.len());
        for (t, g) in batch.iter().zip(got) {
            prop_assert_eq!(canon(g), canon(s.run(t)));
        }
    }

    /// The shared memo is semantically invisible: memo on and memo off
    /// produce identical per-item results on the same batch.
    #[test]
    fn memo_on_and_off_are_identical(s in bt_sttr(), batch in bt_batch()) {
        let plan = Plan::compile(&s);
        let on = RunOptions { memo: true, workers: 1, ..RunOptions::default() };
        let off = RunOptions { memo: false, workers: 1, ..RunOptions::default() };
        let (with_memo, stats) = plan.run_batch_with(&batch, &on);
        let (without_memo, _) = plan.run_batch_with(&batch, &off);
        for (a, b) in with_memo.into_iter().zip(without_memo) {
            prop_assert_eq!(canon(a), canon(b));
        }
        // The memo was really consulted (root lookups happen per item).
        prop_assert!(stats.memo_hits + stats.memo_misses > 0);
    }

    /// Cap parity: for any cap (including 0), the plan's per-item result
    /// equals `run_bounded` — same outputs, same `Budget` errors.
    #[test]
    fn cap_contract_matches_run_bounded(s in bt_sttr(), t in bt_tree(), cap in 0usize..6) {
        let plan = Plan::compile(&s);
        let opts = RunOptions { cap, workers: 1, ..RunOptions::default() };
        let (mut got, _) = plan.run_batch_with(std::slice::from_ref(&t), &opts);
        prop_assert_eq!(canon(got.pop().unwrap()), canon(s.run_bounded(&t, cap)));
    }

    /// Parallel evaluation returns results in input order and agrees with
    /// the sequential plan run.
    #[test]
    fn pooled_run_matches_sequential(s in bt_sttr(), batch in bt_batch()) {
        let plan = Plan::compile(&s);
        let seq = RunOptions { workers: 1, ..RunOptions::default() };
        let par = RunOptions { workers: 4, ..RunOptions::default() };
        let (a, _) = plan.run_batch_with(&batch, &seq);
        let (b, stats) = plan.run_batch_with(&batch, &par);
        prop_assert_eq!(stats.workers, 4);
        for (x, y) in a.into_iter().zip(b) {
            prop_assert_eq!(canon(x), canon(y));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lookahead automata past 64 states: the plan's spilled bitset
    /// words agree with the reference interpreter's state sets, with the
    /// memo on and off.
    #[test]
    fn wide_lookahead_agrees_with_sttr_run(s in wide_sttr(), batch in bt_batch()) {
        prop_assert!(s.lookahead_sta().state_count() > 64);
        let plan = Plan::compile(&s);
        for memo in [true, false] {
            let opts = RunOptions { memo, workers: 1, ..RunOptions::default() };
            let (got, _) = plan.run_batch_with(&batch, &opts);
            for (t, g) in batch.iter().zip(got) {
                prop_assert_eq!(canon(g), canon(s.run(t)));
            }
        }
    }
}

// ---------- directed batch-semantics tests ----------

/// A tree type with a ternary constructor `T` and a leaf `D` that no
/// rule of [`two_outputs`] reads.
fn t3() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "T3",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("D", 0), ("N", 2), ("T", 3)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

/// Two unguarded leaf rules emitting `L[1]` and `L[2]`, and node rules
/// combining the results of their children: a leaf has two outputs, a
/// pair of leaves four, and `D` none.
fn two_outputs() -> Sttr {
    let (ty, alg) = t3();
    let leaf = ty.ctor_id("L").unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg);
    let q = b.state("two");
    for v in [1, 2] {
        b.plain_rule(
            q,
            leaf,
            Formula::True,
            Out::node(leaf, LabelFn::new(vec![Term::int(v)]), vec![]),
        );
    }
    for (name, rank) in [("N", 2), ("T", 3)] {
        let ctor = ty.ctor_id(name).unwrap();
        b.plain_rule(
            q,
            ctor,
            Formula::True,
            Out::node(
                ctor,
                LabelFn::new(vec![Term::field(0)]),
                (0..rank).map(|i| Out::Call(q, i)).collect(),
            ),
        );
    }
    b.build(q)
}

/// The cap contract on a set of two: caps 0 and 1 fail with `Budget`,
/// cap 2 returns both trees. A node whose product has four alternatives
/// fails below cap 4, and so does `T(L, L, D)`, whose product is empty
/// but whose partial product over its first two children already has
/// four — exactly like `run_bounded`, whether the leaves' sets come from
/// evaluation or from the memo.
#[test]
fn cap_below_two_outputs_errors_like_run_bounded() {
    let s = two_outputs();
    let plan = Plan::compile(&s);
    let (ty, _) = t3();
    let inputs = ["L[0]", "N[0](L[0], L[5])", "T[0](L[0], L[5], D[0])"]
        .map(|src| Tree::parse(&ty, src).unwrap());
    for cap in 0..6 {
        for memo in [true, false] {
            let opts = RunOptions {
                cap,
                memo,
                workers: 1,
                ..RunOptions::default()
            };
            let (got, _) = plan.run_batch_with(&inputs, &opts);
            for (t, g) in inputs.iter().zip(got) {
                assert_eq!(canon(g), canon(s.run_bounded(t, cap)), "{t:?}, cap {cap}");
            }
        }
        let lens = inputs
            .iter()
            .map(|t| s.run_bounded(t, cap).ok().map(|v| v.len()))
            .collect::<Vec<_>>();
        let at_least = |n: usize, len: usize| (cap >= n).then_some(len);
        assert_eq!(lens, [at_least(2, 2), at_least(4, 4), at_least(4, 0)]);
    }
}

fn left_chain(depth: usize) -> Tree {
    let (ty, _) = bt();
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut t = Tree::leaf(leaf, Label::single(0));
    for i in 0..depth {
        let r = Tree::leaf(leaf, Label::single(i as i64));
        t = Tree::new(node, Label::single(i as i64), vec![t, r]);
    }
    t
}

/// A complete binary tree of the given depth where every node carries a
/// distinct label — structurally unique subtrees that the global
/// interner cannot collapse — so evaluation really visits 2^(depth+1)−1
/// nodes at a recursion depth the test stack tolerates.
fn full_tree(depth: usize) -> Tree {
    fn go(ty: &TreeType, depth: usize, next: &mut i64) -> Tree {
        let leaf = ty.ctor_id("L").unwrap();
        let node = ty.ctor_id("N").unwrap();
        let label = Label::single(*next);
        *next += 1;
        if depth == 0 {
            return Tree::leaf(leaf, label);
        }
        let l = go(ty, depth - 1, next);
        let r = go(ty, depth - 1, next);
        Tree::new(node, label, vec![l, r])
    }
    let (ty, _) = bt();
    go(&ty, depth, &mut 0)
}

/// The identity transducer on BT, used by the directed tests below.
fn bt_identity() -> Sttr {
    let (ty, alg) = bt();
    fast_core::identity(&ty, &alg)
}

#[test]
fn per_item_timeout_fails_only_the_slow_item() {
    let plan = Plan::compile(&bt_identity());
    let opts = RunOptions {
        workers: 1,
        timeout: Some(std::time::Duration::ZERO),
        ..RunOptions::default()
    };
    // Enough nodes that the cooperative deadline check (every 256 steps)
    // fires; an expired deadline must surface as `Timeout`, not hang.
    let (results, _) = plan.run_batch_with(&[full_tree(10)], &opts);
    assert!(matches!(
        results[0],
        Err(TransducerError::Timeout { limit_ms: 0 })
    ));
    // Without a deadline the same item runs fine.
    let ok = plan.run_batch(&[full_tree(10)]);
    assert_eq!(ok[0].as_ref().unwrap().len(), 1);
}

#[test]
fn memo_hits_across_cloned_batch_items() {
    let plan = Plan::compile(&bt_identity());
    let t = left_chain(64);
    let batch: Vec<Tree> = (0..8).map(|_| t.clone()).collect();
    let (results, stats) = plan.run_batch_with(
        &batch,
        &RunOptions {
            workers: 1,
            ..RunOptions::default()
        },
    );
    assert!(results.iter().all(|r| r.is_ok()));
    // Items 2..8 are clones of item 1: their roots share a TreeId, so
    // everything after the first evaluation is a single memo hit.
    assert!(
        stats.memo_hits >= 7,
        "expected cross-item hits, got {stats:?}"
    );
    assert!(stats.memo_hit_rate() > 0.0);
}

#[test]
fn run_stream_yields_every_item() {
    let s = bt_identity();
    let plan = Arc::new(Plan::compile(&s));
    let batch: Vec<Tree> = (1..20).map(left_chain).collect();
    let expected: Vec<_> = batch.iter().map(|t| s.run(t).unwrap()).collect();
    let rx = plan.run_stream(
        batch,
        RunOptions {
            workers: 3,
            channel_bound: 2, // tiny bound: exercise backpressure
            ..RunOptions::default()
        },
    );
    let mut seen = vec![None; expected.len()];
    for (i, r) in rx {
        assert!(seen[i].is_none(), "item {i} delivered twice");
        seen[i] = Some(r.unwrap());
    }
    for (i, got) in seen.into_iter().enumerate() {
        assert_eq!(got.expect("missing item"), expected[i]);
    }
}

#[test]
fn memo_capacity_is_respected() {
    let plan = Plan::compile(&bt_identity());
    let batch: Vec<Tree> = (1..40).map(left_chain).collect();
    let (results, stats) = plan.run_batch_with(
        &batch,
        &RunOptions {
            workers: 1,
            memo_capacity: 16, // one entry per shard — constant churn
            ..RunOptions::default()
        },
    );
    assert!(results.iter().all(|r| r.is_ok()));
    assert!(stats.memo_evictions > 0, "tiny memo must evict: {stats:?}");
}
