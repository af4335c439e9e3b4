//! Span-subscriber contract for the runtime.
//!
//! With tracing off, a batch run must buffer **zero** span events (the
//! span macro is a no-op but for one relaxed load). With tracing on, the
//! recorded spans must reconstruct to the documented nesting
//! `rt.run_batch` > `rt.item` > `plan.dispatch`.
//!
//! Both phases live in one `#[test]`, and every test in this file holds
//! [`SERIAL`] while it runs batches, so the global subscriber flag and
//! event buffer are not raced by a sibling test's spans.

use fast_rt::{Plan, RunOptions};
use fast_smt::{Label, LabelAlg, LabelSig, Sort};
use fast_trees::{Tree, TreeType};
use std::sync::{Arc, Mutex};

/// Serializes the tests of this binary (they share the span buffer).
static SERIAL: Mutex<()> = Mutex::new(());

fn identity_plan() -> (Plan, Vec<Tree>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let sttr = fast_core::identity(&ty, &alg);
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut t = Tree::leaf(leaf, Label::single(0));
    for v in 1..24 {
        t = Tree::new(
            node,
            Label::single(v),
            vec![t, Tree::leaf(leaf, Label::single(-v))],
        );
    }
    let batch: Vec<Tree> = (0..16).map(|_| t.clone()).collect();
    (Plan::compile(&sttr), batch)
}

#[test]
fn disabled_subscriber_buffers_nothing_and_enabled_spans_nest() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (plan, batch) = identity_plan();
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };

    // Phase 1 — subscriber off: the batch must not record any event.
    assert!(!fast_obs::tracing_enabled());
    fast_obs::drain_events();
    let (results, _) = plan.run_batch_with(&batch, &opts);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(
        fast_obs::events_len(),
        0,
        "tracing is off, yet the batch buffered span events"
    );

    // Phase 2 — subscriber on: spans nest run_batch > item > dispatch.
    fast_obs::set_tracing(true);
    let (results, _) = plan.run_batch_with(&batch, &opts);
    fast_obs::set_tracing(false);
    assert!(results.iter().all(|r| r.is_ok()));
    let events = fast_obs::drain_events();
    assert!(!events.is_empty());
    let tree = fast_obs::trace::phase_tree(&events);
    assert!(
        fast_obs::trace::tree_has_path(&tree, &["rt.run_batch", "rt.item", "plan.dispatch"]),
        "expected rt.run_batch > rt.item > plan.dispatch in:\n{}",
        fast_obs::trace::render_tree(&tree)
    );
    // Every item produced exactly one rt.item and one plan.dispatch span.
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("rt.run_batch"), 1);
    assert_eq!(count("rt.item"), batch.len());
    assert_eq!(count("plan.dispatch"), batch.len());
}

#[test]
fn profiled_run_attributes_rule_work() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (plan, batch) = identity_plan();
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let (results, stats, profile) = plan.run_batch_profiled(&batch, &opts);
    assert!(results.iter().all(|r| r.is_ok()));

    let fired: u64 = profile.entries.iter().map(|e| e.fired).sum();
    assert!(fired > 0, "identity rules must fire");
    let total_ns: u64 = profile.entries.iter().map(|e| e.ns).sum();
    assert!(total_ns > 0, "fired rules must accumulate time");

    // Cloned batch items share subtrees: the memo hits recorded in the
    // batch stats must be attributed to some state in the profile.
    let memo_hits: u64 = profile.entries.iter().map(|e| e.state_memo_hits).sum();
    assert!(stats.memo_hits > 0);
    assert!(memo_hits > 0, "memo hits must show up per state");

    // hot(k) is sorted by descending time and excludes rules that never
    // ran.
    let hot = profile.hot(usize::MAX);
    assert!(hot.windows(2).all(|w| w[0].ns >= w[1].ns));
    assert!(hot.iter().all(|e| e.fired + e.guard_evals + e.ns > 0));

    // The rendered table and JSON agree on the hottest rule.
    let table = profile.render_hot(5);
    assert!(table.contains(&hot[0].state_name));
    let json = profile.to_json();
    assert!(!json.as_array().unwrap().is_empty());
}
