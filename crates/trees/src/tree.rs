//! σ-labeled finite trees, globally hash-consed.

use crate::intern::{lookup, LabelKey, ValueRef};
use crate::ty::{CtorId, TreeType};
use fast_smt::Label;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The stable identity of an interned tree: equal ids ⇔ structurally
/// equal trees, for the life of the process.
///
/// Ids are allocated monotonically by the global interner
/// ([`crate::intern`]) and never reused — the canonical node behind an
/// id is owned by the intern table and never dropped — so a `TreeId` is
/// a sound cache key across arbitrary drops and rebuilds of the trees
/// it describes. Ids depend on interning *order* (which threads can
/// perturb), so they are deliberately not `Ord`: use the tree's
/// structural ordering for deterministic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(pub(crate) u64);

impl TreeId {
    /// The raw 64-bit id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// An immutable σ-labeled tree, hash-consed in a process-wide table:
/// every structurally distinct subtree exists once, behind one
/// canonical `Arc`, with a stable [`TreeId`].
///
/// Cloning is O(1) (one `Arc` bump). Equality is an id comparison and
/// hashing writes a precomputed structural hash — both O(1) regardless
/// of tree size. Ordering is structural (deterministic across runs),
/// with an id fast path for the equal case.
///
/// # Examples
///
/// ```
/// use fast_trees::{Tree, TreeType};
/// use fast_smt::{Label, LabelSig, Sort};
///
/// let bt = TreeType::new("BT", LabelSig::single("i", Sort::Int),
///                        vec![("L", 0), ("N", 2)]);
/// let leaf = |n: i64| Tree::leaf(bt.ctor_id("L").unwrap(), Label::single(n));
/// let t = Tree::new(bt.ctor_id("N").unwrap(), Label::single(0i64),
///                   vec![leaf(1), leaf(2)]);
/// assert_eq!(t.size(), 3);
/// assert_eq!(t.display(&bt).to_string(), "N[0](L[1], L[2])");
/// // Building the same structure again yields the same canonical node.
/// let again = Tree::parse(&bt, "N[0](L[1], L[2])").unwrap();
/// assert_eq!(t.id(), again.id());
/// assert!(t.ptr_eq(&again));
/// ```
pub struct Tree {
    node: Arc<Node>,
    id: TreeId,
    hash: u64,
}

pub(crate) struct Node {
    pub(crate) ctor: CtorId,
    pub(crate) label: Label,
    pub(crate) children: Vec<Tree>,
}

impl Tree {
    /// Creates a tree node (interned: structurally equal trees share one
    /// canonical node and [`TreeId`], whoever builds them).
    pub fn new(ctor: CtorId, label: Label, children: Vec<Tree>) -> Tree {
        let (t, hit) = lookup(ctor, LabelKey::Owned(label), Cow::Owned(children));
        if hit {
            fast_obs::count!("intern.hits");
        }
        t
    }

    /// Assembles a handle around an already-interned node (interner
    /// use only — this is what keeps the interner the single chokepoint).
    pub(crate) fn from_parts(node: Arc<Node>, id: TreeId, hash: u64) -> Tree {
        Tree { node, id, hash }
    }

    /// Creates a leaf (nullary node).
    pub fn leaf(ctor: CtorId, label: Label) -> Tree {
        Tree::new(ctor, label, Vec::new())
    }

    /// The constructor at the root.
    pub fn ctor(&self) -> CtorId {
        self.node.ctor
    }

    /// The label at the root.
    pub fn label(&self) -> &Label {
        &self.node.label
    }

    /// Child subtrees.
    pub fn children(&self) -> &[Tree] {
        &self.node.children
    }

    /// The `i`-th child.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn child(&self, i: usize) -> &Tree {
        &self.node.children[i]
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(Tree::size).sum::<usize>()
    }

    /// Height (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(Tree::depth).max().unwrap_or(0)
    }

    /// Checks the tree is well-formed for `ty`: constructor ids in range
    /// with matching ranks, labels conforming to the signature.
    pub fn conforms_to(&self, ty: &TreeType) -> bool {
        self.ctor().0 < ty.ctor_count()
            && ty.rank(self.ctor()) == self.children().len()
            && self.label().conforms_to(ty.sig())
            && self.children().iter().all(|c| c.conforms_to(ty))
    }

    /// Pre-order iterator over all nodes.
    pub fn iter(&self) -> Iter<'_> {
        Iter { stack: vec![self] }
    }

    /// The interned identity of this tree: equal ids ⇔ structurally
    /// equal trees, stable and never reused for the life of the process.
    /// This is the memo key the runtime uses (`(state, TreeId)`), and
    /// the right key for any caller-side cache over trees.
    pub fn id(&self) -> TreeId {
        self.id
    }

    /// The precomputed structural hash: equal trees have equal hashes
    /// in every thread. The hash is keyed per process (see
    /// [`crate::intern`]), so it differs from run to run.
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }

    /// True if both handles share the canonical allocation. Because
    /// trees are globally interned, this coincides with `==` (and with
    /// `id()` equality) — it exists as a cheap sanity probe for tests.
    pub fn ptr_eq(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.node, &other.node)
    }

    /// Pretty-prints using constructor names from `ty`.
    pub fn display<'a>(&'a self, ty: &'a TreeType) -> DisplayTree<'a> {
        DisplayTree { tree: self, ty }
    }

    /// Parses the s-expression syntax produced by [`Tree::display`]:
    /// `ctor[label-values](child, …)`, with `[...]` omitted for unit labels
    /// and `(...)` omitted for leaves. Whitespace (Unicode) may separate
    /// any two tokens; identifiers are runs of alphanumerics and `_`.
    ///
    /// Label values are integers (`-12`), `true`/`false`, strings in
    /// double quotes and chars in single quotes. Strings and chars take
    /// every escape Rust's `{:?}` emits, so every rendered label reads
    /// back as itself: `\n`, `\r`, `\t`, `\0`, `\\`, `\"`, `\'` and
    /// `\u{…}` (one to six hex digits naming a Unicode scalar value).
    /// A backslash before any other character stands for that character.
    ///
    /// The parser works on bytes and interns each node as soon as its
    /// children are done, with a borrowed key ([`crate::intern`]): a
    /// node that is already interned costs no allocation.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax, label-sort or
    /// arity error, or trailing input. Positions are character offsets.
    pub fn parse(ty: &TreeType, input: &str) -> Result<Tree, String> {
        let mut p = Parser {
            ty,
            input,
            pos: 0,
            children: Vec::new(),
            values: Vec::new(),
            hits: 0,
        };
        let t = p.tree();
        fast_obs::count!("intern.hits", p.hits);
        let t = t?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(format!("trailing input at position {}", p.char_pos(p.pos)));
        }
        Ok(t)
    }
}

impl Clone for Tree {
    fn clone(&self) -> Tree {
        Tree {
            node: Arc::clone(&self.node),
            id: self.id,
            hash: self.hash,
        }
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        self.id == other.id
    }
}
impl Eq for Tree {}

impl Hash for Tree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Tree {
    fn partial_cmp(&self, other: &Tree) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tree {
    fn cmp(&self, other: &Tree) -> std::cmp::Ordering {
        // Structural order (ctor, label, children — the pre-interning
        // derived order) keeps iteration deterministic across runs; ids
        // depend on interning order, so they only serve the equal case.
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.node
            .ctor
            .cmp(&other.node.ctor)
            .then_with(|| self.node.label.cmp(&other.node.label))
            .then_with(|| self.node.children.cmp(&other.node.children))
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Constructor names are not known without a type; print the id.
        write_tree(f, self, &|out, c| write!(out, "c{}", c.0))
    }
}

/// Helper for [`Tree::display`].
pub struct DisplayTree<'a> {
    tree: &'a Tree,
    ty: &'a TreeType,
}

impl fmt::Display for DisplayTree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_tree(f, self.tree, &|out, c| out.write_str(self.ty.ctor_name(c)))
    }
}

/// Bytes of rendered text collected before one write to the formatter.
const CHUNK: usize = 8 << 10;

/// Renders `t` into a local buffer that is handed to `f` a chunk at a
/// time: the pieces of a node are a few bytes each, and appending them
/// to a `String` is far cheaper than one dynamic formatter call apiece.
fn write_tree<N>(f: &mut fmt::Formatter<'_>, t: &Tree, name: &N) -> fmt::Result
where
    N: Fn(&mut String, CtorId) -> fmt::Result,
{
    fn node<N>(f: &mut fmt::Formatter<'_>, out: &mut String, t: &Tree, name: &N) -> fmt::Result
    where
        N: Fn(&mut String, CtorId) -> fmt::Result,
    {
        if out.len() >= CHUNK {
            f.write_str(out)?;
            out.clear();
        }
        name(out, t.ctor())?;
        if t.label().arity() > 0 {
            t.label().write_to(out)?;
        }
        if let Some((first, rest)) = t.children().split_first() {
            out.push('(');
            node(f, out, first, name)?;
            for c in rest {
                out.push_str(", ");
                node(f, out, c, name)?;
            }
            out.push(')');
        }
        Ok(())
    }
    let mut out = String::new();
    node(f, &mut out, t, name)?;
    f.write_str(&out)
}

/// Pre-order iterator (see [`Tree::iter`]).
pub struct Iter<'a> {
    stack: Vec<&'a Tree>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tree;
    fn next(&mut self) -> Option<&'a Tree> {
        let t = self.stack.pop()?;
        for c in t.children().iter().rev() {
            self.stack.push(c);
        }
        Some(t)
    }
}

/// Byte-level recursive descent over the input. Label values and
/// finished children collect on two stacks shared by the whole parse:
/// a node's values and children are the top of each stack while it is
/// being interned, and are popped once it is.
struct Parser<'a> {
    ty: &'a TreeType,
    input: &'a str,
    /// Byte offset, always on a char boundary.
    pos: usize,
    children: Vec<Tree>,
    values: Vec<ValueRef<'a>>,
    /// Intern hits so far, counted into `intern.hits` once per parse.
    hits: u64,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The char at the cursor (slow path for non-ASCII bytes).
    fn peek_char(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Character offset of byte offset `byte`, for error messages.
    fn char_pos(&self, byte: usize) -> usize {
        self.input[..byte].chars().count()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || (b'\t'..=b'\r').contains(&b) {
                self.pos += 1;
            } else if b >= 0x80 && self.peek_char().is_some_and(char::is_whitespace) {
                self.bump_char();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            // The position reported is past the offending char.
            self.bump_char();
            Err(format!(
                "expected '{}' at position {}",
                c as char,
                self.char_pos(self.pos)
            ))
        }
    }

    fn ident(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else if b >= 0x80 && self.peek_char().is_some_and(char::is_alphanumeric) {
                self.bump_char();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(format!(
                "expected identifier at position {}",
                self.char_pos(self.pos)
            ));
        }
        Ok(&self.input[start..self.pos])
    }

    fn tree(&mut self) -> Result<Tree, String> {
        let name = self.ident()?;
        let ctor = self
            .ty
            .ctor_id(name)
            .ok_or_else(|| format!("unknown constructor '{name}'"))?;
        let vbase = self.values.len();
        self.skip_ws();
        if self.peek() == Some(b'[') {
            self.pos += 1;
            self.skip_ws();
            if self.peek() != Some(b']') {
                loop {
                    let v = self.value()?;
                    self.values.push(v);
                    self.skip_ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(b']')?;
        }
        let fields = &self.values[vbase..];
        let sig = self.ty.sig();
        if fields.len() != sig.arity()
            || fields
                .iter()
                .enumerate()
                .any(|(i, v)| v.sort() != sig.sort(i))
        {
            let label = Label::new(fields.iter().map(ValueRef::to_value).collect());
            return Err(format!("label {label} does not conform to signature {sig}"));
        }
        let cbase = self.children.len();
        self.skip_ws();
        if self.peek() == Some(b'(') {
            self.pos += 1;
            self.skip_ws();
            if self.peek() != Some(b')') {
                loop {
                    let c = self.tree()?;
                    self.children.push(c);
                    self.skip_ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(b')')?;
        }
        let arity = self.children.len() - cbase;
        if arity != self.ty.rank(ctor) {
            return Err(format!(
                "constructor '{name}' expects {} children, got {arity}",
                self.ty.rank(ctor)
            ));
        }
        let (t, hit) = lookup(
            ctor,
            LabelKey::Fields(&self.values[vbase..]),
            Cow::Borrowed(&self.children[cbase..]),
        );
        self.hits += u64::from(hit);
        self.values.truncate(vbase);
        self.children.truncate(cbase);
        Ok(t)
    }

    fn value(&mut self) -> Result<ValueRef<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                self.string().map(ValueRef::Str)
            }
            Some(b'\'') => {
                self.pos += 1;
                let c = match self.bump_char() {
                    Some('\\') => self.escape()?,
                    c => c,
                }
                .ok_or("unterminated char")?;
                self.expect(b'\'')?;
                Ok(ValueRef::Char(c))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                self.pos += 1;
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.pos += 1;
                }
                self.input[start..self.pos]
                    .parse::<i64>()
                    .map(ValueRef::Int)
                    .map_err(|e| e.to_string())
            }
            _ => match self.ident()? {
                "true" => Ok(ValueRef::Bool(true)),
                "false" => Ok(ValueRef::Bool(false)),
                word => Err(format!("unexpected value '{word}'")),
            },
        }
    }

    /// The body of a double-quoted string, the opening quote consumed.
    /// A string without escapes is borrowed from the input; `"` and `\`
    /// are ASCII and never occur inside a multi-byte char, so a byte
    /// scan for them cannot split one.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.input.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let n = bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let text = &self.input[run..run + n];
            self.pos = run + n + 1;
            if bytes[run + n] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(text),
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(text);
            s.push(self.escape()?.ok_or("unterminated string")?);
        }
    }

    /// Decodes one escape, the backslash consumed; `None` at the end of
    /// the input.
    fn escape(&mut self) -> Result<Option<char>, String> {
        let Some(c) = self.bump_char() else {
            return Ok(None);
        };
        Ok(Some(match c {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            '0' => '\0',
            'u' if self.peek() == Some(b'{') => self.unicode_escape()?,
            c => c,
        }))
    }

    /// `{hex}` after `\u`: one to six hex digits naming a scalar value.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        self.pos += 1;
        let digits = self.input.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_hexdigit())
            .count();
        let hex = &self.input[self.pos..self.pos + digits];
        self.pos += digits;
        let c = if self.peek() == Some(b'}') && (1..=6).contains(&digits) {
            u32::from_str_radix(hex, 16).ok().and_then(char::from_u32)
        } else {
            None
        };
        match c {
            Some(c) => {
                self.pos += 1;
                Ok(c)
            }
            None => Err(format!(
                "invalid unicode escape at position {}",
                self.char_pos(start)
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::{LabelSig, Sort};

    fn bt() -> Arc<TreeType> {
        TreeType::new(
            "BT",
            LabelSig::single("i", Sort::Int),
            vec![("L", 0), ("N", 2)],
        )
    }

    fn html() -> Arc<TreeType> {
        TreeType::new(
            "HtmlE",
            LabelSig::single("tag", Sort::Str),
            vec![("nil", 0), ("val", 1), ("attr", 2), ("node", 3)],
        )
    }

    #[test]
    fn build_and_inspect() {
        let ty = bt();
        let l = |n: i64| Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(n));
        let t = Tree::new(
            ty.ctor_id("N").unwrap(),
            Label::single(0i64),
            vec![l(1), l(2)],
        );
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 2);
        assert!(t.conforms_to(&ty));
        assert_eq!(t.iter().count(), 3);
        let labels: Vec<i64> = t
            .iter()
            .map(|n| n.label().get(0).as_int().unwrap())
            .collect();
        assert_eq!(labels, vec![0, 1, 2]); // pre-order
    }

    #[test]
    fn nonconforming() {
        let ty = bt();
        // Wrong arity for N.
        let t = Tree::new(ty.ctor_id("N").unwrap(), Label::single(0i64), vec![]);
        assert!(!t.conforms_to(&ty));
        // Wrong label sort.
        let t = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single("x"));
        assert!(!t.conforms_to(&ty));
    }

    #[test]
    fn parse_round_trip() {
        let ty = html();
        let text = r#"node["script"](nil[""], nil[""], node["div"](nil[""], nil[""], nil[""]))"#;
        let t = Tree::parse(&ty, text).unwrap();
        assert!(t.conforms_to(&ty));
        let printed = t.display(&ty).to_string();
        let t2 = Tree::parse(&ty, &printed).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parse_int_labels() {
        let ty = bt();
        let t = Tree::parse(&ty, "N[-5](L[1], N[2](L[3], L[4]))").unwrap();
        assert_eq!(t.label().get(0).as_int(), Some(-5));
        assert_eq!(t.size(), 5);
    }

    fn chars() -> Arc<TreeType> {
        TreeType::new(
            "C",
            LabelSig::single("c", Sort::Char),
            vec![("C", 0), ("nœud", 2)],
        )
    }

    #[test]
    fn parse_errors() {
        let ty = bt();
        assert!(Tree::parse(&ty, "X[1]").is_err()); // unknown ctor
        assert!(Tree::parse(&ty, "N[1](L[1])").is_err()); // arity
        assert!(Tree::parse(&ty, "L[\"s\"]").is_err()); // label sort
        assert!(Tree::parse(&ty, "L[1] L[2]").is_err()); // trailing
    }

    /// Every error the parser reports, message for message. Positions
    /// count characters, not bytes: the cases after a multi-byte prefix
    /// would read higher as byte offsets.
    #[test]
    fn parse_error_messages_and_positions() {
        let (bt, html, chars) = (bt(), html(), chars());
        let cases: &[(&TreeType, &str, &str)] = &[
            (&bt, "X[1]", "unknown constructor 'X'"),
            (
                &bt,
                "N[1](L[1])",
                "constructor 'N' expects 2 children, got 1",
            ),
            (
                &bt,
                "L[1](L[2])",
                "constructor 'L' expects 0 children, got 1",
            ),
            (
                &bt,
                "L[\"s\"]",
                "label [\"s\"] does not conform to signature [i: Int]",
            ),
            (&bt, "L", "label [] does not conform to signature [i: Int]"),
            (
                &bt,
                "L[1, 2]",
                "label [1, 2] does not conform to signature [i: Int]",
            ),
            (&bt, "L[1] L[2]", "trailing input at position 5"),
            (&bt, "", "expected identifier at position 0"),
            (&bt, "  (", "expected identifier at position 2"),
            (&bt, "N[1](L[1],", "expected identifier at position 10"),
            (&bt, "L[1", "expected ']' at position 3"),
            (&bt, "L[1}", "expected ']' at position 4"),
            (&bt, "N[1](L[1], L[2]", "expected ')' at position 15"),
            (&bt, "N[1](L[1] L[2])", "expected ')' at position 11"),
            (&bt, "L[x]", "unexpected value 'x'"),
            (&bt, "L[-]", "invalid digit found in string"),
            (
                &bt,
                "L[99999999999999999999]",
                "number too large to fit in target type",
            ),
            (&html, "nil[\"abc", "unterminated string"),
            (&html, "nil[\"a\\", "unterminated string"),
            (&chars, "C['", "unterminated char"),
            (&chars, "C['\\", "unterminated char"),
            (&chars, "C['ab']", "expected ''' at position 5"),
            // After multi-byte characters (é is 2 bytes, 😀 is 4).
            (&html, "nil[\"é😀\"] x", "trailing input at position 10"),
            (
                &html,
                "nil[\"é😀\"]\u{a0}\u{2028}nil",
                "trailing input at position 11",
            ),
            (&chars, "C['é'", "expected ']' at position 5"),
            (&chars, "C['é'😀", "expected ']' at position 6"),
            (
                &chars,
                "nœud['n'](C['é'] C['x'])",
                "expected ')' at position 18",
            ),
            (
                &chars,
                "nœud['n'](C['é'], )",
                "expected identifier at position 18",
            ),
            (
                &chars,
                "nœud['n'](C['é'], C['😀'])é",
                "trailing input at position 25",
            ),
        ];
        for (ty, input, message) in cases {
            assert_eq!(Tree::parse(ty, input).unwrap_err(), *message, "{input:?}");
        }
    }

    /// The escapes `{:?}` emits decode to what they stand for, so a
    /// rendered label parses back to itself; a backslash before any
    /// other character still stands for that character, and a
    /// malformed `\u{…}` is an error.
    #[test]
    fn escapes_decode_and_round_trip() {
        let ty = html();
        let nil = ty.ctor_id("nil").unwrap();
        for (text, value) in [
            (r#"nil["a\rb"]"#, "a\rb"),
            (r#"nil["a\0b"]"#, "a\0b"),
            (r#"nil["e\u{301}"]"#, "e\u{301}"),
            (r#"nil["\u{a0}\u{10ffff}"]"#, "\u{a0}\u{10ffff}"),
            (r#"nil["\n\t\\\"\'"]"#, "\n\t\\\"'"),
            (r#"nil["a\qb\u"]"#, "aqbu"),
            (r#"nil["\u{7f}é😀"]"#, "\u{7f}é😀"),
        ] {
            let t = Tree::parse(&ty, text).unwrap();
            assert_eq!(t.label().get(0).as_str(), Some(value), "{text}");
            assert!(t.ptr_eq(&Tree::leaf(nil, Label::single(value))));
            let printed = t.display(&ty).to_string();
            assert!(Tree::parse(&ty, &printed).unwrap().ptr_eq(&t), "{printed}");
        }
        let cty = chars();
        for c in [
            '\r', '\0', '\'', '"', '\\', '\u{301}', '\u{a0}', '\u{2028}', '😀',
        ] {
            let t = Tree::leaf(cty.ctor_id("C").unwrap(), Label::single(c));
            let printed = t.display(&cty).to_string();
            assert!(Tree::parse(&cty, &printed).unwrap().ptr_eq(&t), "{printed}");
        }
        for (text, position) in [
            (r#"nil["\u{}"]"#, 7),
            (r#"nil["\u{zz}"]"#, 7),
            (r#"nil["\u{d800}"]"#, 7),
            (r#"nil["\u{110000}"]"#, 7),
            (r#"nil["\u{0000041}"]"#, 7),
            (r#"nil["é\u{41"]"#, 8),
        ] {
            assert_eq!(
                Tree::parse(&ty, text).unwrap_err(),
                format!("invalid unicode escape at position {position}"),
                "{text}"
            );
        }
    }

    #[test]
    fn structural_equality_and_sharing() {
        let ty = bt();
        let l = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(7i64));
        let t1 = Tree::new(
            ty.ctor_id("N").unwrap(),
            Label::single(0i64),
            vec![l.clone(), l.clone()],
        );
        let t2 = Tree::parse(&ty, "N[0](L[7], L[7])").unwrap();
        assert_eq!(t1, t2);
        // Interning: independent construction paths (builder vs parser)
        // converge on the same canonical node and id.
        assert_eq!(t1.id(), t2.id());
        assert!(t1.ptr_eq(&t2));
        assert!(t1.child(0).ptr_eq(t2.child(1)));
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(t1);
        assert!(s.contains(&t2));
    }

    #[test]
    fn escaped_strings() {
        let ty = html();
        let t = Tree::parse(&ty, r#"nil["a\"b"]"#).unwrap();
        assert_eq!(t.label().get(0).as_str(), Some("a\"b"));
        let printed = t.display(&ty).to_string();
        assert_eq!(Tree::parse(&ty, &printed).unwrap(), t);
    }
}
