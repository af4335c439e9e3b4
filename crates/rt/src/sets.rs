//! The two value types the batch evaluator computes and memoizes.
//!
//! * [`OutSet`] — the finished output set of one sub-transduction
//!   `T_q(t)`: empty, one tree held inline, or a shared slice of two or
//!   more. Deterministic transducers only ever produce the first two, so
//!   their memo entries and return values allocate nothing beyond the
//!   interned output tree itself; `Out::Call` hands the memoized set
//!   back by cloning one handle.
//! * [`StateSet`] — the lookahead-STA states accepting a subtree, as a
//!   bitset. The first 64 states sit in an inline word; an automaton
//!   with more states (composition can produce them) spills the rest to
//!   a boxed slice of further words. Rule lookahead requirements are
//!   precompiled into the same type, so "the child is in `L^ℓ`" is
//!   `mask & !bits == 0` word by word.

use fast_automata::StateId;
use fast_trees::Tree;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An output set: sorted structurally and duplicate-free, the same
/// canonical form [`fast_core::Sttr::run`] returns.
///
/// `Many` always holds at least two trees; [`OutSet::from_vec`] is the
/// only way to build it.
#[derive(Debug, Clone, Default)]
pub(crate) enum OutSet {
    #[default]
    Empty,
    One(Tree),
    Many(Arc<[Tree]>),
}

impl OutSet {
    /// Sorts and deduplicates `v` into a set.
    pub(crate) fn from_vec(mut v: Vec<Tree>) -> OutSet {
        if v.len() > 1 {
            v.sort_unstable();
            v.dedup();
        }
        match v.len() {
            0 => OutSet::Empty,
            1 => OutSet::One(v.pop().expect("length checked")),
            _ => OutSet::Many(v.into()),
        }
    }

    /// The trees of the set, in order.
    pub(crate) fn as_slice(&self) -> &[Tree] {
        match self {
            OutSet::Empty => &[],
            OutSet::One(t) => std::slice::from_ref(t),
            OutSet::Many(ts) => ts,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, OutSet::Empty)
    }

    pub(crate) fn into_vec(self) -> Vec<Tree> {
        match self {
            OutSet::Empty => Vec::new(),
            OutSet::One(t) => vec![t],
            OutSet::Many(ts) => ts.to_vec(),
        }
    }

    /// Heap bytes the set owns beyond its own size: the shared slice's
    /// reference counts and handles (the trees themselves belong to the
    /// interner).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            OutSet::Many(ts) => 2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&ts[..]),
            _ => 0,
        }
    }
}

/// A set of lookahead-STA states as a bitset: state `s < 64` is bit `s`
/// of `low`; state `s ≥ 64` is bit `s % 64` of `high[s / 64 - 1]`.
/// `high` stays empty — no allocation — while every member is below 64.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StateSet {
    low: u64,
    high: Box<[u64]>,
}

impl StateSet {
    /// The set of `states`.
    pub(crate) fn of(states: &BTreeSet<StateId>) -> StateSet {
        let mut s = StateSet::default();
        for q in states {
            s.insert(q.0);
        }
        s
    }

    pub(crate) fn insert(&mut self, state: usize) {
        if state < 64 {
            self.low |= 1 << state;
            return;
        }
        let word = state / 64 - 1;
        if word >= self.high.len() {
            let mut grown = std::mem::take(&mut self.high).into_vec();
            grown.resize(word + 1, 0);
            self.high = grown.into_boxed_slice();
        }
        self.high[word] |= 1 << (state % 64);
    }

    pub(crate) fn contains(&self, state: usize) -> bool {
        if state < 64 {
            return self.low & (1 << state) != 0;
        }
        self.high
            .get(state / 64 - 1)
            .is_some_and(|w| w & (1 << (state % 64)) != 0)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|&w| w == 0)
    }

    /// `self ⊆ other`.
    pub(crate) fn is_subset(&self, other: &StateSet) -> bool {
        self.low & !other.low == 0
            && self
                .high
                .iter()
                .enumerate()
                .all(|(i, &w)| w & !other.high.get(i).copied().unwrap_or(0) == 0)
    }

    /// Heap bytes of the spilled words.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.high[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::Label;
    use fast_trees::CtorId;

    fn leaf(v: i64) -> Tree {
        Tree::leaf(CtorId(0), Label::single(v))
    }

    #[test]
    fn out_set_is_sorted_and_duplicate_free() {
        assert!(OutSet::from_vec(Vec::new()).is_empty());
        assert!(matches!(
            OutSet::from_vec(vec![leaf(1), leaf(1)]),
            OutSet::One(_)
        ));
        let s = OutSet::from_vec(vec![leaf(3), leaf(1), leaf(3), leaf(2)]);
        assert!(matches!(s, OutSet::Many(_)));
        assert_eq!(s.as_slice(), &[leaf(1), leaf(2), leaf(3)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.clone().into_vec(), s.as_slice().to_vec());
        assert_eq!(OutSet::One(leaf(1)).heap_bytes(), 0);
    }

    #[test]
    fn state_set_inline_and_spilled() {
        let mut a = StateSet::default();
        assert!(a.is_empty());
        a.insert(0);
        a.insert(63);
        assert_eq!(a.heap_bytes(), 0, "states below 64 stay inline");
        a.insert(64);
        a.insert(200);
        assert!(a.contains(0) && a.contains(63) && a.contains(64) && a.contains(200));
        assert!(!a.contains(1) && !a.contains(65) && !a.contains(1000));
        assert_eq!(a.heap_bytes(), 3 * 8);

        let b = StateSet::of(&[0, 63, 64, 200, 201].map(StateId).into());
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        // A spilled word that is all zero does not break the subset test.
        let mut c = StateSet::default();
        c.insert(130);
        let mut d = c.clone();
        d.insert(5);
        assert!(c.is_subset(&d));
        assert!(!c.is_subset(&StateSet::of(&[StateId(5)].into())));
        assert!(StateSet::default().is_subset(&StateSet::default()));
        assert!(StateSet::default().is_subset(&c));
    }
}
