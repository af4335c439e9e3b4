//! The two in-process workloads: `batch_fig7` (the Fig. 7 list chain
//! through the batch runtime) and `ar_check` (the §5.2 pairwise conflict
//! check). Each runs in a worker process of its own, so every set-up and
//! every measurement starts from empty process-global caches.

use crate::layers::{self, Replay};
use crate::measure;
use fast_automata::{witness, Sta};
use fast_bench::lists::{filter_ev, ilist_alg, ilist_type, map_caesar};
use fast_bench::taggers::{
    double_tag_lang, no_tags_lang, random_tagger, random_world, world_alg, world_type,
};
use fast_core::{compose, is_empty_transducer, restrict, restrict_out, Sttr, TransducerError};
use fast_json::Json;
use fast_rt::{Pipeline, RunOptions};
use fast_smt::Label;
use fast_trees::{Tree, TreeType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool workers for `run_batch_with` (the machine has two cores).
const WORKERS: usize = 2;

/// Threads that share an in-process workload's timed phase. `ar_check`
/// runs two, each checking every other pair, so both cores stay busy as
/// they do in the other workloads: on the reference machine, ten-seed
/// sets of one checking thread spread 0.33 to 0.44 between runs, and of
/// two 0.09 to 0.13. `batch_fig7`'s pool already uses both cores.
fn shards(work: &Work) -> usize {
    match work {
        Work::Fig7(_) => 1,
        Work::Ar(_) => 2,
    }
}

/// Distinct integer lists a `batch_fig7` run draws its batches from.
const FIG7_POOL: usize = 2048;
/// Lists per `run_batch_with` call.
const FIG7_BATCH: usize = 128;
/// List lengths, drawn uniformly.
const FIG7_LEN: (usize, usize) = (40, 160);

/// Control-state counts `random_tagger` draws from (1..=31).
const AR_SIZES: usize = 31;
/// Taggers kept per control-state count.
const AR_PER_SIZE: usize = 32;
/// Distinct pairs in the check sequence: more than three times what one
/// run's two threads get through on the reference machine, so no run
/// repeats a pair.
const AR_PAIRS: usize = 4096;

/// Latency limits per operation.
pub const FIG7_LIMIT_MS: f64 = 100.0;
/// See [`FIG7_LIMIT_MS`].
pub const AR_LIMIT_MS: f64 = 250.0;

/// Operations in each replay process; every other one is traced.
const FIG7_REPLAY: usize = 60;
/// See [`FIG7_REPLAY`].
const AR_REPLAY: usize = 120;

/// Random worlds each non-conflicting pair is spot-checked on.
const AR_SPOT_WORLDS: u64 = 2;

/// The `batch_fig7` set-up: the fused chain and the list pool.
pub struct Fig7 {
    ty: Arc<TreeType>,
    pipeline: Pipeline,
    pool: Vec<(Vec<i64>, Tree)>,
    seed: u64,
}

impl Fig7 {
    /// Compiles `map_caesar ∘ filter_ev ∘ map_caesar` and builds the pool.
    pub fn setup(seed: u64) -> Fig7 {
        let ty = ilist_type();
        let alg = ilist_alg(&ty);
        let stages = [
            Arc::new(map_caesar(&ty, &alg)),
            Arc::new(filter_ev(&ty, &alg)),
            Arc::new(map_caesar(&ty, &alg)),
        ];
        let pipeline = Pipeline::compile(&stages);
        let mut rng = StdRng::seed_from_u64(measure::mix(seed, 4));
        let pool = (0..FIG7_POOL)
            .map(|_| {
                let n = rng.gen_range(FIG7_LEN.0..FIG7_LEN.1);
                let v: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
                let t = list_tree(&ty, &v);
                (v, t)
            })
            .collect();
        Fig7 {
            ty,
            pipeline,
            pool,
            seed,
        }
    }

    /// The pool indices of operation `k`'s batch.
    fn batch(&self, k: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(measure::mix(self.seed, 1 << 20 | k as u64));
        (0..FIG7_BATCH)
            .map(|_| rng.gen_range(0..self.pool.len()))
            .collect()
    }

    /// The textual form of the pool, for the determinism tests.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (_, t) in &self.pool {
            s.push_str(&t.display(&self.ty).to_string());
            s.push('\n');
        }
        for k in 0..4 {
            s.push_str(&format!("{:?}\n", self.batch(k)));
        }
        s
    }

    fn run(&self, idx: &[usize]) -> Vec<Result<Vec<Tree>, TransducerError>> {
        let items: Vec<Tree> = idx.iter().map(|&i| self.pool[i].1.clone()).collect();
        let opts = RunOptions {
            workers: WORKERS,
            ..RunOptions::default()
        };
        let _s = fast_obs::span!("rt.pipeline_run");
        self.pipeline.run_batch_with(&items, &opts).0
    }

    /// Checks one batch's results against the hand-written chain.
    fn wrong(&self, idx: &[usize], results: &[Result<Vec<Tree>, TransducerError>]) -> bool {
        idx.len() != results.len()
            || idx.iter().zip(results).any(|(&i, r)| match r {
                Ok(outs) => {
                    outs.len() != 1
                        || list_values(&outs[0]) != Some(reference_fig7(&self.pool[i].0))
                }
                Err(_) => true,
            })
    }
}

fn list_tree(ty: &TreeType, values: &[i64]) -> Tree {
    let nil = ty.ctor_id("nil").expect("IList has nil");
    let cons = ty.ctor_id("cons").expect("IList has cons");
    values
        .iter()
        .rev()
        .fold(Tree::leaf(nil, Label::single(0i64)), |t, &v| {
            Tree::new(cons, Label::single(v), vec![t])
        })
}

fn list_values(t: &Tree) -> Option<Vec<i64>> {
    let mut out = Vec::new();
    let mut t = t;
    while let [next] = t.children() {
        out.push(t.label().get(0).as_int()?);
        t = next;
    }
    Some(out)
}

/// The independent reference for Fig. 7: `map_caesar`, keep the even
/// values, `map_caesar`, over a plain vector.
fn reference_fig7(values: &[i64]) -> Vec<i64> {
    let caesar = |x: i64| (x + 5).rem_euclid(26);
    values
        .iter()
        .map(|&x| caesar(x))
        .filter(|x| x % 2 == 0)
        .map(caesar)
        .collect()
}

/// The `ar_check` set-up: taggers, the two §5.2 languages and the pair
/// order.
pub struct Ar {
    taggers: Vec<Sttr>,
    no_tags: Sta,
    double: Sta,
    pairs: Vec<(usize, usize)>,
    ty: Arc<TreeType>,
    seed: u64,
}

/// One pairwise verdict and the automaton behind it.
struct Verdict {
    conflict: bool,
    checked: Sttr,
}

impl Ar {
    /// Generates the taggers and a seeded sequence of distinct pairs.
    ///
    /// A check's cost grows with the product of the two taggers' state
    /// counts, and `generate_taggers` draws each count at random, so the
    /// few hundred pairs one run gets through, and how far a run gets,
    /// would change what a run measures. Instead the generator's taggers
    /// are sorted into one bucket per control-state count (1..=31, the
    /// generator's range) until every bucket holds [`AR_PER_SIZE`]. The
    /// pairs cycle through 31 fixed pairs of counts that use every count
    /// once on each side, so any 31 consecutive checks have the same
    /// size mix; the seed picks the two taggers within their buckets.
    pub fn setup(seed: u64) -> Ar {
        let ty = world_type();
        let alg = world_alg(&ty);
        let mut rng = StdRng::seed_from_u64(measure::mix(seed, 5));
        let mut buckets: Vec<Vec<Sttr>> = (0..AR_SIZES).map(|_| Vec::new()).collect();
        let mut id = 0;
        while buckets.iter().any(|b| b.len() < AR_PER_SIZE) {
            id += 1;
            let t = random_tagger(&ty, &alg, id, &mut rng);
            // Control states plus the tag-list copy state.
            let b = &mut buckets[t.state_count() - 2];
            if b.len() < AR_PER_SIZE {
                b.push(t);
            }
        }
        let taggers: Vec<Sttr> = buckets.into_iter().flatten().collect();

        let mut seen = std::collections::HashSet::new();
        let mut pairs = Vec::with_capacity(AR_PAIRS);
        while pairs.len() < AR_PAIRS {
            let a = pairs.len() % AR_SIZES;
            let b = (7 * a + 3) % AR_SIZES;
            loop {
                let i = a * AR_PER_SIZE + rng.gen_range(0..AR_PER_SIZE);
                let j = b * AR_PER_SIZE + rng.gen_range(0..AR_PER_SIZE);
                if i != j && seen.insert((i.min(j), i.max(j))) {
                    pairs.push((i, j));
                    break;
                }
            }
        }
        Ar {
            no_tags: no_tags_lang(&ty, &alg),
            double: double_tag_lang(&ty, &alg),
            taggers,
            pairs,
            ty,
            seed,
        }
    }

    /// The textual form of the taggers and pair order, for the
    /// determinism tests.
    pub fn describe(&self) -> String {
        let mut s: String = self.taggers.iter().map(|t| format!("{t}\n")).collect();
        s.push_str(&format!("{:?}\n", self.pairs));
        s
    }

    /// The four-step check of §5.2 on pair `k`, each step in a span.
    fn check_pair(&self, k: usize) -> Result<Verdict, TransducerError> {
        let (i, j) = self.pairs[k % self.pairs.len()];
        let _op = fast_obs::span!("op");
        let p = {
            let _s = fast_obs::span!("core.compose");
            compose(&self.taggers[i], &self.taggers[j])?.sttr
        };
        let p_in = {
            let _s = fast_obs::span!("core.restrict");
            restrict(&p, &self.no_tags)?
        };
        let checked = {
            let _s = fast_obs::span!("core.restrict_out");
            restrict_out(&p_in, &self.double)?
        };
        let conflict = {
            let _s = fast_obs::span!("automata.emptiness");
            !is_empty_transducer(&checked)?
        };
        Ok(Verdict { conflict, checked })
    }

    /// Checks a verdict independently. A conflict must come with a
    /// tag-free witness on which running both taggers with the reference
    /// interpreter tags some element twice; a non-conflicting pair must
    /// tag no element twice on seeded random worlds.
    fn wrong(&self, k: usize, v: &Verdict) -> bool {
        let (i, j) = self.pairs[k % self.pairs.len()];
        let doubles = |world: &Tree| -> Option<bool> {
            let mut any = false;
            for mid in self.taggers[i].run(world).ok()? {
                for out in self.taggers[j].run(&mid).ok()? {
                    any |= has_double_tag(&self.ty, &out);
                }
            }
            Some(any)
        };
        if v.conflict {
            let w = witness(&v.checked.domain()).ok().flatten();
            !matches!(w.as_ref().and_then(doubles), Some(true))
        } else {
            (0..AR_SPOT_WORLDS).any(|n| {
                let world =
                    random_world(&self.ty, 16, measure::mix(self.seed, (k as u64) << 8 | n));
                doubles(&world) != Some(false)
            })
        }
    }
}

/// Hand-written: does some element of `world` carry two or more tags?
fn has_double_tag(ty: &TreeType, world: &Tree) -> bool {
    let elem = ty.ctor_id("elem").expect("World has elem");
    let tag = ty.ctor_id("tag").expect("World has tag");
    let mut t = world;
    while t.ctor() == elem {
        let mut tags = 0;
        let mut l = &t.children()[0];
        while l.ctor() == tag {
            tags += 1;
            l = &l.children()[0];
        }
        if tags >= 2 {
            return true;
        }
        t = &t.children()[1];
    }
    false
}

/// Runs `f`; returns its result with the wall and process CPU time it
/// took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let (t, c) = (Instant::now(), measure::process_cpu());
    let r = f();
    (r, t.elapsed(), measure::process_cpu().saturating_sub(c))
}

/// One timed operation.
struct Op {
    wall: Duration,
    cpu: Duration,
    failed: bool,
    wrong: bool,
}

/// A workload ready to run operations.
pub enum Work {
    Fig7(Fig7),
    Ar(Ar),
}

impl Work {
    pub fn setup(workload: &str, seed: u64) -> Work {
        match workload {
            "batch_fig7" => Work::Fig7(Fig7::setup(seed)),
            _ => Work::Ar(Ar::setup(seed)),
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Work::Fig7(f) => f.describe(),
            Work::Ar(a) => a.describe(),
        }
    }

    /// Runs operation `k` and checks its output. Only the operation is
    /// timed, in wall time and in process CPU time.
    fn op(&self, k: usize, conflicts: &mut usize) -> Op {
        match self {
            Work::Fig7(f) => {
                let idx = f.batch(k);
                let (results, wall, cpu) = timed(|| f.run(&idx));
                let failed = results.iter().any(Result::is_err);
                Op {
                    wall,
                    cpu,
                    failed,
                    wrong: !failed && f.wrong(&idx, &results),
                }
            }
            Work::Ar(a) => {
                let (verdict, wall, cpu) = timed(|| a.check_pair(k));
                let (failed, wrong) = match &verdict {
                    Ok(v) => {
                        *conflicts += usize::from(v.conflict);
                        (false, a.wrong(k, v))
                    }
                    Err(_) => (true, false),
                };
                Op {
                    wall,
                    cpu,
                    failed,
                    wrong,
                }
            }
        }
    }

    /// Operations that make up one full mix of the workload, so that no
    /// run ends on a partial cycle of `ar_check`'s size pairs.
    fn cycle(&self) -> usize {
        match self {
            Work::Fig7(_) => 1,
            Work::Ar(_) => AR_SIZES,
        }
    }

    /// Runs operations for `seconds`, on [`shards`] threads that take
    /// every `shards`-th operation each, then on to the end of each
    /// thread's cycle; returns the result line, with one latency list per
    /// thread.
    pub fn timed(&self, seconds: u64) -> Json {
        let stop = Instant::now() + Duration::from_secs(seconds);
        let shards = shards(self);
        let per_thread = |shard: usize| {
            let mut lat = Vec::new();
            let (mut failed, mut wrong, mut conflicts) = (0usize, 0, 0);
            let mut n = 0;
            while n % self.cycle() != 0 || Instant::now() < stop {
                let op = self.op(shard + n * shards, &mut conflicts);
                n += 1;
                if op.failed {
                    failed += 1;
                } else {
                    lat.push(Json::Float(op.wall.as_secs_f64() * 1e3));
                }
                wrong += usize::from(op.wrong);
            }
            (n, failed, wrong, Json::Array(lat))
        };
        let threads = measure::par_map(shards, per_thread);
        let sum = |f: fn(&(usize, usize, usize, Json)) -> usize| {
            Json::Int(threads.iter().map(f).sum::<usize>() as i64)
        };
        Json::obj([
            ("attempted", sum(|t| t.0)),
            ("failed", sum(|t| t.1)),
            ("wrong", sum(|t| t.2)),
            (
                "latencies_ms",
                Json::Array(threads.into_iter().map(|t| t.3).collect()),
            ),
        ])
    }

    /// Replays the first operations, tracing those whose index has the
    /// given parity.
    pub fn replay(&self, parity: usize) -> Replay {
        let count = match self {
            Work::Fig7(_) => FIG7_REPLAY,
            Work::Ar(_) => AR_REPLAY,
        };
        let mut report = Replay::default();
        let (mut wall, mut cpu) = (Duration::ZERO, Duration::ZERO);
        let mut conflicts = 0;
        let mut layers = layers::Layers::default();
        let before = fast_obs::snapshot();
        for k in 0..count {
            let traced = k % 2 == parity;
            fast_obs::set_tracing(traced);
            let op = self.op(k, &mut conflicts);
            fast_obs::set_tracing(false);
            layers.collect();
            report.record(traced, op.wall);
            report.wrong += usize::from(op.failed || op.wrong);
            wall += op.wall;
            cpu += op.cpu;
        }
        let end = fast_obs::snapshot();
        report.counts = layers::counter_metrics(&end.delta_from(&before), &end, count);
        if let Work::Fig7(f) = self {
            report.counts.insert(
                "rt.pipeline_segments".into(),
                f.pipeline.segment_count() as f64,
            );
            report.counts.insert(
                "rt.pool_cpu_util".into(),
                cpu.as_secs_f64() / (wall.as_secs_f64() * WORKERS as f64),
            );
        }
        report
            .counts
            .insert("ar.conflicts".into(), conflicts as f64);
        report.layer_ms = layers.totals_ms();
        report
    }
}
