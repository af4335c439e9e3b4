//! Global hash-consing of trees.
//!
//! Every [`Tree`] in the process is built through this module: the
//! constructors ([`Tree::new`], [`Tree::leaf`], and everything layered
//! on them — the HTML/JSON builders, the generators) and the
//! s-expression parser ([`Tree::parse`]) intern each node in a
//! process-wide, 16-way-sharded hash-cons table. Each structurally
//! distinct `(ctor, label, children)` node is stored exactly once
//! behind an [`Arc`], and every `Tree` handle carries the canonical
//! node plus:
//!
//! * a **stable 64-bit [`TreeId`]** — equal ids ⇔ structurally equal
//!   trees, for the life of the process. Ids are allocated from a
//!   monotonic counter and *never reused*, which is what makes them
//!   sound memo keys: unlike the raw `Arc` addresses the batch runtime
//!   used before, an id can never be recycled into an alias of a
//!   dropped tree (the interner owns the canonical node, so it is never
//!   dropped at all);
//! * a **precomputed structural hash**, the same in every thread
//!   (derived from the structure only, never from ids) and keyed per
//!   process, making `Hash` O(1) and shard selection consistent.
//!
//! This mirrors `fast_smt::intern` (`Interned<Formula>`), which proved
//! the pattern on guard formulas. The full interning contract — what
//! callers may and may not rely on — is written out in
//! `ARCHITECTURE.md` §6 ("Tree interning").
//!
//! # Lookup
//!
//! There is one lookup routine, `lookup`, and both entry points go
//! through it: [`Tree::new`] hands it an owned label and child vector,
//! the parser a *borrowed key* — the constructor, a slice of label
//! field values that borrow the input text, and a slice of its child
//! stack. Nearly every node of a re-sent document is a hit, and a hit
//! allocates nothing: the owned [`Label`] and `Vec<Tree>` are built
//! only on a miss.
//!
//! The structural hash is computed once per node, over the constructor,
//! each label field and each child's precomputed hash, with the
//! standard library's SipHash-1-3 under a key drawn once per process —
//! the protection `HashMap`'s default hasher gives its keys, which here
//! come from request text. A shard is an append-only open-addressing
//! table indexed by that hash directly, so nothing hashes it a second
//! time; its slots carry the hash beside the node, so a hit usually
//! reads one slot and then the node. A hit still compares the full
//! structure — constructor, child ids and label values — so two
//! structures that share a hash never share a node; they sit in one
//! probe run and count in `intern.hash_collisions`.
//!
//! # Memory
//!
//! The table is append-only: entries are never evicted, so every
//! structurally distinct tree built during the process stays resident.
//! That is the price of id stability, and it is the same trade
//! `fast-smt` makes for formulas. `intern.misses` therefore *is* the
//! table size.
//!
//! # Telemetry
//!
//! | counter | meaning |
//! |---|---|
//! | `intern.hits` | an intern call returned an existing canonical node |
//! | `intern.misses` | a new canonical node was allocated (= table size) |
//! | `intern.hash_collisions` | two distinct nodes share a 64-bit structural hash |
//! | `intern.contended` | a shard lock was busy and the call had to block |
//!
//! Residency is tracked by gauges, so a windowed view (`fastc watch`,
//! `fast-serve`) can watch it without replaying counters:
//! `intern.resident_nodes.shard00..15` count canonical nodes per shard
//! (their sum equals [`table_len`]; imbalance means a skewed structural
//! hash), and `intern.resident_bytes` estimates the heap bytes the
//! whole table pins ([`resident_bytes`]). Because the table never
//! evicts, these gauges only rise — the point of exposing them is to
//! see *how fast*, which bounded-memory evaluation work needs.

use crate::tree::{Node, Tree, TreeId};
use crate::ty::CtorId;
use fast_smt::{Label, Sort, Value};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of intern-table shards (matches `fast_smt::intern::SHARDS`).
pub const SHARDS: usize = 16;

/// One slot of a shard table: a canonical node, its id, and its
/// structural hash — kept beside the pointer so a probe passes over
/// other hashes without following it, and growth never recomputes it.
struct Slot {
    hash: u64,
    id: TreeId,
    node: Option<Arc<Node>>,
}

/// One shard: an append-only open-addressing table, probed linearly
/// from the low bits of the structural hash — already a keyed hash, so
/// nothing hashes it again. A hit reads a single slot, usually one
/// cache line, before the node itself. Nodes are never removed, so the
/// table needs no tombstones; it doubles at half full.
#[derive(Default)]
struct Shard {
    slots: Box<[Slot]>,
    len: usize,
}

impl Shard {
    /// The canonical handle for the structure `(ctor, label, children)`
    /// with structural hash `hash` — or, on a miss, whether a node of
    /// another structure with the same hash was passed (a genuine 64-bit
    /// collision). Equal hashes are only a filter: the structure itself
    /// decides.
    fn find(
        &self,
        hash: u64,
        ctor: CtorId,
        label: &LabelKey<'_>,
        children: &[Tree],
    ) -> Result<Tree, bool> {
        let mut collided = false;
        if self.slots.is_empty() {
            return Err(collided);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while let Some(node) = &self.slots[i].node {
            if self.slots[i].hash == hash {
                if node.ctor == ctor && *node.children == *children && label.matches(&node.label) {
                    return Ok(Tree::from_parts(Arc::clone(node), self.slots[i].id, hash));
                }
                collided = true;
            }
            i = (i + 1) & mask;
        }
        Err(collided)
    }

    fn insert(&mut self, slot: Slot) {
        if (self.len + 1) * 2 > self.slots.len() {
            let cap = (self.slots.len() * 2).max(64);
            let empty = || Slot {
                hash: 0,
                id: TreeId(0),
                node: None,
            };
            let old = std::mem::replace(
                &mut self.slots,
                std::iter::repeat_with(empty).take(cap).collect(),
            );
            for s in old.into_vec().into_iter().filter(|s| s.node.is_some()) {
                self.put(s);
            }
        }
        self.put(slot);
        self.len += 1;
    }

    /// Puts `slot` in the first empty slot from its home slot on.
    fn put(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.hash as usize & mask;
        while self.slots[i].node.is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }
}

struct Interner {
    shards: [Mutex<Shard>; SHARDS],
    next_id: AtomicU64,
}

fn interner() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        next_id: AtomicU64::new(0),
    })
}

/// A label field value as a lookup key: strings are borrowed (from the
/// parser's input, or decoded once when they carry escapes), so a key
/// that hits costs no allocation.
pub(crate) enum ValueRef<'a> {
    Bool(bool),
    Int(i64),
    Str(Cow<'a, str>),
    Char(char),
}

impl ValueRef<'_> {
    fn of(v: &Value) -> ValueRef<'_> {
        match v {
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(n) => ValueRef::Int(*n),
            Value::Str(s) => ValueRef::Str(Cow::Borrowed(s)),
            Value::Char(c) => ValueRef::Char(*c),
        }
    }

    pub(crate) fn sort(&self) -> Sort {
        match self {
            ValueRef::Bool(_) => Sort::Bool,
            ValueRef::Int(_) => Sort::Int,
            ValueRef::Str(_) => Sort::Str,
            ValueRef::Char(_) => Sort::Char,
        }
    }

    pub(crate) fn to_value(&self) -> Value {
        match self {
            ValueRef::Bool(b) => Value::Bool(*b),
            ValueRef::Int(n) => Value::Int(*n),
            ValueRef::Str(s) => Value::Str(s.as_ref().to_owned()),
            ValueRef::Char(c) => Value::Char(*c),
        }
    }

    fn matches(&self, v: &Value) -> bool {
        match (self, v) {
            (ValueRef::Bool(a), Value::Bool(b)) => a == b,
            (ValueRef::Int(a), Value::Int(b)) => a == b,
            (ValueRef::Str(a), Value::Str(b)) => **a == **b,
            (ValueRef::Char(a), Value::Char(b)) => a == b,
            _ => false,
        }
    }
}

/// The label half of a lookup key.
pub(crate) enum LabelKey<'a> {
    /// An owned label ([`Tree::new`]): moved into the node on a miss.
    Owned(Label),
    /// Borrowed field values (the parser): copied out only on a miss.
    Fields(&'a [ValueRef<'a>]),
}

impl LabelKey<'_> {
    /// Hashes the field count, then each field as a [`ValueRef`] —
    /// owned and borrowed keys alike, so they meet on one node.
    fn hash_into(&self, h: &mut impl Hasher) {
        match self {
            LabelKey::Owned(l) => {
                h.write_usize(l.values().len());
                l.values().iter().for_each(|v| ValueRef::of(v).hash(h));
            }
            LabelKey::Fields(fs) => {
                h.write_usize(fs.len());
                fs.iter().for_each(|v| v.hash(h));
            }
        }
    }

    fn matches(&self, label: &Label) -> bool {
        match self {
            LabelKey::Owned(l) => l == label,
            LabelKey::Fields(fs) => {
                let vs = label.values();
                fs.len() == vs.len() && fs.iter().zip(vs).all(|(f, v)| f.matches(v))
            }
        }
    }

    fn into_label(self) -> Label {
        match self {
            LabelKey::Owned(l) => l,
            LabelKey::Fields(fs) => Label::new(fs.iter().map(ValueRef::to_value).collect()),
        }
    }
}

/// A sort tag, then the payload (a string ends in `0xff`, so field
/// boundaries are part of the hash).
impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            ValueRef::Bool(b) => (0u8, b).hash(h),
            ValueRef::Int(n) => (1u8, n).hash(h),
            ValueRef::Str(s) => (2u8, s.as_ref()).hash(h),
            ValueRef::Char(c) => (3u8, c).hash(h),
        }
    }
}

/// Structural hash of a prospective node: the standard library's
/// SipHash-1-3 under a key drawn once per process (the protection
/// `HashMap`'s default hasher gives its keys). Children contribute
/// their precomputed hashes, so the hash is a function of the structure
/// alone, the same in every thread. Labels come from outside the
/// program, and
/// under a public hash function crafted labels could share a hash, or
/// its low bits, by the thousand and make each lookup among them
/// linear; under a secret key they cannot be aimed.
fn structural_hash(ctor: CtorId, label: &LabelKey<'_>, children: &[Tree]) -> u64 {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEY.get_or_init(RandomState::new).build_hasher();
    ctor.hash(&mut h);
    label.hash_into(&mut h);
    h.write_usize(children.len());
    children
        .iter()
        .for_each(|c| h.write_u64(c.precomputed_hash()));
    h.finish()
}

/// Shard index for a structural hash: the top bits, clear of the low
/// bits a shard table probes from.
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> 60) as usize & (SHARDS - 1)
}

/// Per-shard resident-node gauge names (`&'static` literals, as the
/// registry requires), mirroring the solver cache's shard counters.
static SHARD_GAUGE_NAMES: [&str; SHARDS] = [
    "intern.resident_nodes.shard00",
    "intern.resident_nodes.shard01",
    "intern.resident_nodes.shard02",
    "intern.resident_nodes.shard03",
    "intern.resident_nodes.shard04",
    "intern.resident_nodes.shard05",
    "intern.resident_nodes.shard06",
    "intern.resident_nodes.shard07",
    "intern.resident_nodes.shard08",
    "intern.resident_nodes.shard09",
    "intern.resident_nodes.shard10",
    "intern.resident_nodes.shard11",
    "intern.resident_nodes.shard12",
    "intern.resident_nodes.shard13",
    "intern.resident_nodes.shard14",
    "intern.resident_nodes.shard15",
];

fn shard_gauge(i: usize) -> &'static fast_obs::Gauge {
    static GAUGES: OnceLock<[&'static fast_obs::Gauge; SHARDS]> = OnceLock::new();
    GAUGES.get_or_init(|| std::array::from_fn(|i| fast_obs::gauge(SHARD_GAUGE_NAMES[i])))[i]
}

fn bytes_gauge() -> &'static fast_obs::Gauge {
    static G: OnceLock<&'static fast_obs::Gauge> = OnceLock::new();
    G.get_or_init(|| fast_obs::gauge("intern.resident_bytes"))
}

/// Estimated heap bytes a newly interned node pins for the life of the
/// process: the canonical [`Node`] allocation, its label's field values
/// (plus string heap storage), the child-handle vector, and its shard
/// [`Slot`]. An estimate — allocator slack and the table's empty slots
/// are not modelled — but a stable one, so the
/// `intern.resident_bytes` gauge is comparable across runs.
fn node_bytes(node: &Node) -> u64 {
    let label_heap: usize = node
        .label
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.capacity(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of::<Node>()
        + std::mem::size_of_val(node.label.values())
        + label_heap
        + node.children.len() * std::mem::size_of::<Tree>()
        + std::mem::size_of::<Slot>()) as u64
}

/// Returns the canonical handle for a structure, interning it on a
/// miss, and whether it was a hit — the one lookup routine behind
/// [`Tree::new`] and [`Tree::parse`]. Misses are counted here; hits
/// are left to the caller, so the parser can count
/// a document's hits with one shared-counter update instead of one per
/// node.
///
/// Children must already be interned handles (they always are — `Tree`
/// cannot be built any other way), so the equality scan compares child
/// ids in O(arity) instead of deep-comparing subtrees. The owned label
/// and child vector are materialised only on a miss.
pub(crate) fn lookup(ctor: CtorId, label: LabelKey<'_>, children: Cow<'_, [Tree]>) -> (Tree, bool) {
    let hash = structural_hash(ctor, &label, &children);
    let table = interner();
    let shard_ix = shard_of(hash);
    let mut shard = match table.shards[shard_ix].try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::WouldBlock) => {
            fast_obs::count!("intern.contended");
            table.shards[shard_ix].lock().unwrap()
        }
        Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
    };
    let collided = match shard.find(hash, ctor, &label, &children) {
        Ok(hit) => return (hit, true),
        Err(collided) => collided,
    };
    fast_obs::count!("intern.misses");
    if collided {
        fast_obs::count!("intern.hash_collisions");
    }
    let id = TreeId(table.next_id.fetch_add(1, Ordering::Relaxed));
    let node = Arc::new(Node {
        ctor,
        label: label.into_label(),
        children: children.into_owned(),
    });
    shard_gauge(shard_ix).add(1);
    bytes_gauge().add(node_bytes(&node));
    shard.insert(Slot {
        hash,
        id,
        node: Some(Arc::clone(&node)),
    });
    (Tree::from_parts(node, id, hash), false)
}

/// Number of distinct trees currently interned (all shards). Equals the
/// process-lifetime `intern.misses` count: the table never evicts.
pub fn table_len() -> usize {
    interner()
        .shards
        .iter()
        .map(|s| s.lock().unwrap().len)
        .sum()
}

/// Resident canonical nodes per shard (sums to [`table_len`]) — the
/// live readings behind the `intern.resident_nodes.shard*` gauges,
/// counted from the table itself rather than the gauges.
pub fn shard_lens() -> [usize; SHARDS] {
    std::array::from_fn(|i| interner().shards[i].lock().unwrap().len)
}

/// Estimated heap bytes pinned by the intern table — the current
/// reading of the `intern.resident_bytes` gauge.
pub fn resident_bytes() -> u64 {
    bytes_gauge().get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::{LabelSig, Sort};
    use std::sync::Arc as StdArc;

    fn bt() -> StdArc<crate::ty::TreeType> {
        crate::ty::TreeType::new(
            "BT",
            LabelSig::single("i", Sort::Int),
            vec![("L", 0), ("N", 2)],
        )
    }

    #[test]
    fn interning_dedupes_and_ids_are_stable() {
        let ty = bt();
        let leaf = || Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(424_242i64));
        let a = leaf();
        let b = leaf();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.id(), b.id());
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        let c = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(424_243i64));
        assert_ne!(a.id(), c.id());
        assert!(!a.ptr_eq(&c));
    }

    /// Sibling tests intern concurrently, so nothing here compares the
    /// process-global totals for equality: the table only grows, and a
    /// gauge read between two table readings lies between them.
    #[test]
    fn residency_gauges_track_the_table() {
        let ty = bt();
        let before_nodes = table_len();
        let before_bytes = resident_bytes();
        // Two distinct new structures, one re-intern (no growth).
        let a = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(555_000_111i64));
        let _b = Tree::new(
            ty.ctor_id("N").unwrap(),
            Label::single(555_000_112i64),
            vec![a.clone(), a.clone()],
        );
        let _a2 = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(555_000_111i64));
        assert!(table_len() >= before_nodes + 2);
        assert!(resident_bytes() >= before_bytes + 2 * std::mem::size_of::<Node>() as u64);
        // A shard's gauge moves under the shard lock together with the
        // table, so a snapshot taken between two per-shard readings
        // must read a value between them, whatever else interns.
        let lens_before = shard_lens();
        let snap = fast_obs::snapshot();
        let lens_after = shard_lens();
        for (i, name) in SHARD_GAUGE_NAMES.iter().enumerate() {
            let g = snap.gauge(name) as usize;
            assert!(
                (lens_before[i]..=lens_after[i]).contains(&g),
                "shard {i}: gauge {g} outside [{}, {}]",
                lens_before[i],
                lens_after[i]
            );
        }
        let sum = snap.gauge_sum_prefix("intern.resident_nodes.") as usize;
        assert!(lens_before.iter().sum::<usize>() <= sum);
        assert!(sum <= lens_after.iter().sum::<usize>());
    }

    /// The table never shrinks, a re-intern returns the same id and
    /// allocation, and a new structure gets a fresh id. (Comparing
    /// `table_len()` before and after a re-intern is racy: sibling
    /// test threads intern at the same time.)
    #[test]
    fn table_len_is_monotonic() {
        let ty = bt();
        let before = table_len();
        // A label value chosen to be unique to this test.
        let t = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(987_654_321i64));
        let after = table_len();
        assert!(after > before, "new structure must grow the table");
        let t2 = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(987_654_321i64));
        assert_eq!(t2.id(), t.id(), "re-interning must return the same id");
        assert!(t2.ptr_eq(&t), "re-interning must return the same node");
        assert!(table_len() >= after);
        let fresh = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(987_654_322i64));
        assert_ne!(fresh.id(), t.id());
        assert!(!fresh.ptr_eq(&t));
        assert!(table_len() > after, "a new structure must grow the table");
    }

    /// Structures forced onto one hash share a probe run, never a node:
    /// each lookup finds its own by comparing the structure, and a third
    /// structure misses and reports the collision.
    #[test]
    fn colliding_hashes_never_share_a_node() {
        let ty = bt();
        let (l, n) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
        let a = Tree::leaf(l, Label::single(8_080_001i64));
        let b = Tree::leaf(l, Label::single(8_080_002i64));
        // Each differs from the one before in one part only: the
        // label, the ctor, the child count, the child ids.
        let nodes = [
            (l, Label::single(1i64), vec![]),
            (l, Label::single(2i64), vec![]),
            (n, Label::single(2i64), vec![]),
            (n, Label::single(2i64), vec![a.clone(), a]),
            (n, Label::single(2i64), vec![b.clone(), b]),
        ];
        let mut shard = Shard::default();
        for (i, (ctor, label, children)) in nodes.iter().cloned().enumerate() {
            let node = Node {
                ctor,
                label,
                children,
            };
            shard.insert(Slot {
                hash: 42,
                id: TreeId(i as u64),
                node: Some(Arc::new(node)),
            });
        }
        for (i, (ctor, label, children)) in nodes.iter().enumerate() {
            let fields: Vec<ValueRef> = label.values().iter().map(ValueRef::of).collect();
            for key in [LabelKey::Fields(&fields), LabelKey::Owned(label.clone())] {
                let hit = shard.find(42, *ctor, &key, children).ok();
                assert_eq!(hit.map(|t| t.id()), Some(TreeId(i as u64)));
            }
        }
        let other = LabelKey::Fields(&[ValueRef::Int(3)]);
        assert!(matches!(shard.find(42, l, &other, &[]), Err(true)));
        assert!(matches!(shard.find(43, l, &other, &[]), Err(false)));
    }

    /// Borrowed and owned keys for one structure hash alike and meet on
    /// one node, whichever interns it first.
    #[test]
    fn borrowed_and_owned_keys_agree() {
        let ty = bt();
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let leaf = Tree::leaf(l, Label::single(31_337_001i64));
        let kids = [leaf.clone(), leaf.clone()];
        // Owned key first, then borrowed.
        let a = Tree::new(n, Label::single(31_337_002i64), kids.to_vec());
        let (b, _) = lookup(
            n,
            LabelKey::Fields(&[ValueRef::Int(31_337_002)]),
            Cow::Borrowed(&kids),
        );
        assert!(a.ptr_eq(&b));
        // Borrowed key first, then owned.
        let (c, _) = lookup(
            n,
            LabelKey::Fields(&[ValueRef::Int(31_337_003)]),
            Cow::Borrowed(&kids),
        );
        let d = Tree::new(n, Label::single(31_337_003i64), kids.to_vec());
        assert!(c.ptr_eq(&d));
        let s = ValueRef::Str(Cow::Owned("x\"y".to_string()));
        let key = structural_hash(l, &LabelKey::Fields(std::slice::from_ref(&s)), &[]);
        let owned = structural_hash(l, &LabelKey::Owned(Label::single("x\"y")), &[]);
        assert_eq!(key, owned);
        // Field boundaries and sorts are part of the hash.
        let split = [ValueRef::Str("ab".into()), ValueRef::Str("".into())];
        let shifted = [ValueRef::Str("a".into()), ValueRef::Str("b".into())];
        assert_ne!(
            structural_hash(l, &LabelKey::Fields(&split), &[]),
            structural_hash(l, &LabelKey::Fields(&shifted), &[])
        );
        assert_ne!(
            structural_hash(l, &LabelKey::Fields(&[ValueRef::Int(97)]), &[]),
            structural_hash(l, &LabelKey::Fields(&[ValueRef::Char('a')]), &[])
        );
    }
}
