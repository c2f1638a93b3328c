//! The e-graph itself: hashconsing, union-find, congruence closure,
//! bounded saturation and cost-based extraction.

use crate::fx::FxHashMap;
use crate::rules::RuleScratch;
use crate::{RuleSet, SaturationBudget, SaturationStats, StopReason};
use lintra_dfg::{CostModel, Dfg, DfgError, NodeId, NodeKind, OpCountCost};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

/// Number of distinct [`ENode`] operator kinds ([`ENode::kind_ordinal`]
/// is always below this) — the width of the engine's kind→rule index.
pub(crate) const KIND_COUNT: usize = 9;

/// An e-class reference. Ids are not stable across unions — resolve
/// through [`EGraph::find`] before comparing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(pub(crate) u32);

impl Id {
    /// The raw index (for diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The DFG node language with e-class children. Constants are stored as
/// `f64` bit patterns so hashing and equality are exact (`-0.0` and `0.0`
/// are distinct shapes, as are distinct NaN payloads — though validated
/// DFGs never contain non-finite constants).
///
/// An e-node is 16 bytes: leaf indices are `u32` (a DFG whose sample,
/// channel or state index does not fit is refused by
/// [`EGraph::add_dfg`]), so no variant outgrows `MulConst`'s `u64` + [`Id`].
/// Every e-node is stored as a member cell of its class (cell `i` of the
/// e-graph's node arena for e-node `i`), as its key in the hashcons, and
/// once per child in a 24-byte cell of the parent arena, so this size sets
/// the e-graph's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ENode {
    /// Primary input (sample offset within the batch, channel).
    Input {
        /// Sample offset within the processed batch.
        sample: u32,
        /// Input channel.
        channel: u32,
    },
    /// Previous-iteration state variable.
    StateIn {
        /// State index.
        index: u32,
    },
    /// Literal constant (`f64::to_bits`).
    Const(u64),
    /// Two-operand addition.
    Add(Id, Id),
    /// Two-operand subtraction (`first − second`).
    Sub(Id, Id),
    /// Multiplication by a constant (`f64::to_bits`).
    MulConst(u64, Id),
    /// Multiplication by `2^amount`.
    Shift(i32, Id),
    /// Arithmetic negation.
    Neg(Id),
    /// A register; value passes through.
    Delay(Id),
}

const _: () = assert!(std::mem::size_of::<ENode>() == 16);

impl ENode {
    /// Child e-classes, in operand order.
    pub(crate) fn children(&self) -> [Option<Id>; 2] {
        match *self {
            ENode::Input { .. } | ENode::StateIn { .. } | ENode::Const(_) => [None, None],
            ENode::Add(a, b) | ENode::Sub(a, b) => [Some(a), Some(b)],
            ENode::MulConst(_, a) | ENode::Shift(_, a) | ENode::Neg(a) | ENode::Delay(a) => {
                [Some(a), None]
            }
        }
    }

    /// The same shape with every child mapped.
    pub(crate) fn map_children(self, f: &mut impl FnMut(Id) -> Id) -> ENode {
        match self {
            ENode::Input { .. } | ENode::StateIn { .. } | ENode::Const(_) => self,
            ENode::Add(a, b) => ENode::Add(f(a), f(b)),
            ENode::Sub(a, b) => ENode::Sub(f(a), f(b)),
            ENode::MulConst(c, a) => ENode::MulConst(c, f(a)),
            ENode::Shift(s, a) => ENode::Shift(s, f(a)),
            ENode::Neg(a) => ENode::Neg(f(a)),
            ENode::Delay(a) => ENode::Delay(f(a)),
        }
    }

    /// Dense ordinal of the node's operator kind — the index into the
    /// saturation engine's kind→rule masks (see [`KIND_COUNT`]).
    pub(crate) fn kind_ordinal(&self) -> usize {
        match self {
            ENode::Input { .. } => 0,
            ENode::StateIn { .. } => 1,
            ENode::Const(_) => 2,
            ENode::Add(..) => 3,
            ENode::Sub(..) => 4,
            ENode::MulConst(..) => 5,
            ENode::Shift(..) => 6,
            ENode::Neg(_) => 7,
            ENode::Delay(_) => 8,
        }
    }

    /// The [`NodeKind`] this e-node extracts to — the bridge to
    /// [`CostModel::node_cost`].
    pub fn to_kind(&self) -> NodeKind {
        match *self {
            ENode::Input { sample, channel } => NodeKind::Input {
                sample: sample as usize,
                channel: channel as usize,
            },
            ENode::StateIn { index } => NodeKind::StateIn {
                index: index as usize,
            },
            ENode::Const(bits) => NodeKind::Const(f64::from_bits(bits)),
            ENode::Add(..) => NodeKind::Add,
            ENode::Sub(..) => NodeKind::Sub,
            ENode::MulConst(bits, _) => NodeKind::MulConst(f64::from_bits(bits)),
            ENode::Shift(s, _) => NodeKind::Shift(s),
            ENode::Neg(_) => NodeKind::Neg,
            ENode::Delay(_) => NodeKind::Delay,
        }
    }
}

/// Where a DFG's sinks landed in the e-graph: one e-class per output
/// (keyed by `(sample, channel)`) and per next-state variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRoots {
    /// Output roots, in the source graph's node order.
    pub outputs: Vec<((usize, usize), Id)>,
    /// Next-state roots, in the source graph's node order.
    pub states: Vec<(usize, Id)>,
}

/// Error from e-graph construction or extraction. Saturation itself never
/// errors — budget exhaustion is reported through [`SaturationStats`]; the
/// [`EgraphError::Budget`] variant exists for callers that *require* a
/// saturated result (strict mode).
#[derive(Debug, Clone, PartialEq)]
pub enum EgraphError {
    /// The input DFG failed validation.
    Graph(DfgError),
    /// The input DFG uses a sink node (output/state) as a predecessor.
    UnsupportedGraph {
        /// What was wrong.
        detail: String,
    },
    /// Two graphs asked to be united compute different interfaces
    /// (mismatched output keys or state indices).
    InterfaceMismatch {
        /// What differed.
        detail: String,
    },
    /// A required e-class has no representative grounded in leaves (only
    /// possible on hand-built e-graphs, never on one loaded from a DFG).
    Unextractable {
        /// The offending e-class.
        class: u32,
    },
    /// Saturation stopped on a budget and the caller demanded a fixpoint.
    Budget {
        /// Sweeps performed.
        iterations: usize,
        /// E-nodes created.
        enodes: usize,
    },
}

impl fmt::Display for EgraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EgraphError::Graph(e) => write!(f, "invalid dataflow graph: {e}"),
            EgraphError::UnsupportedGraph { detail } => {
                write!(f, "unsupported dataflow graph: {detail}")
            }
            EgraphError::InterfaceMismatch { detail } => {
                write!(f, "graphs compute different interfaces: {detail}")
            }
            EgraphError::Unextractable { class } => {
                write!(f, "e-class {class} has no extractable representative")
            }
            EgraphError::Budget { iterations, enodes } => {
                write!(
                    f,
                    "equality saturation exhausted its budget after {iterations} iterations \
                     and {enodes} e-nodes without reaching a fixpoint"
                )
            }
        }
    }
}

impl std::error::Error for EgraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EgraphError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfgError> for EgraphError {
    fn from(e: DfgError) -> Self {
        EgraphError::Graph(e)
    }
}

/// One extracted realization.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// The extracted graph (validated, simulable).
    pub dfg: Dfg,
    /// Its cost under the extraction's model (true DAG cost — shared
    /// subexpressions counted once).
    pub cost: f64,
}

/// End-of-list marker in the cell arenas.
const NIL: u32 = u32::MAX;

/// The first and last cell of one list in a cell arena (`NIL` when the
/// list is empty).
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// A cell of one of the e-graph's two arenas: an entry and the index of
/// the next cell in its list.
trait Linked {
    fn next(&self) -> u32;
    fn set_next(&mut self, next: u32);
}

/// A class member.
#[derive(Debug, Clone, Copy)]
struct NodeCell {
    node: ENode,
    next: u32,
}

/// A parent entry: an e-node with the list's class among its children,
/// and the class that e-node lives in.
#[derive(Debug, Clone, Copy)]
struct ParentCell {
    node: ENode,
    class: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<ParentCell>() == 24);

impl Linked for NodeCell {
    fn next(&self) -> u32 {
        self.next
    }
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}

impl Linked for ParentCell {
    fn next(&self) -> u32 {
        self.next
    }
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}

/// The cells of one list, front to back.
struct Cells<'a, T> {
    arena: &'a [T],
    at: u32,
}

impl<'a, T: Linked> Iterator for Cells<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let cell = self.arena.get(self.at as usize)?;
        self.at = cell.next();
        Some(cell)
    }
}

fn cells<T>(arena: &[T], list: List) -> Cells<'_, T> {
    Cells {
        arena,
        at: list.head,
    }
}

/// Links list `back` after list `front`; `back`'s cells must be in no
/// other list.
fn splice<T: Linked>(arena: &mut [T], front: &mut List, back: List) {
    if back.head == NIL {
        return;
    }
    match arena.get_mut(front.tail as usize) {
        Some(tail) => tail.set_next(back.head),
        None => front.head = back.head,
    }
    front.tail = back.tail;
}

/// Writes `entries` over the first cells of `list`, in order, and ends the
/// list after them. The cells past that point fall out of use; `entries`
/// is never longer than the list.
fn rewrite<T: Linked, E: Copy>(
    arena: &mut [T],
    list: &mut List,
    entries: &[E],
    write: impl Fn(&mut T, E),
) {
    let mut at = list.head;
    let mut last = NIL;
    for &entry in entries {
        let Some(cell) = arena.get_mut(at as usize) else {
            break;
        };
        write(cell, entry);
        last = at;
        at = cell.next();
    }
    match arena.get_mut(last as usize) {
        Some(cell) => cell.set_next(NIL),
        None => list.head = NIL,
    }
    list.tail = last;
}

/// Per-id state: whether the id is a canonical class, and the class's
/// member and parent lists (both empty once it merged away).
#[derive(Debug, Clone, Copy)]
struct Slot {
    live: bool,
    nodes: List,
    parents: List,
}

impl Slot {
    const DEAD: Slot = Slot {
        live: false,
        nodes: List::EMPTY,
        parents: List::EMPTY,
    };
}

/// The members of one class, in list order.
pub(crate) struct ClassNodes<'a>(Cells<'a, NodeCell>);

impl<'a> Iterator for ClassNodes<'a> {
    type Item = &'a ENode;

    fn next(&mut self) -> Option<&'a ENode> {
        self.0.next().map(|cell| &cell.node)
    }
}

/// A hashconsed e-graph over [`ENode`] with congruence closure.
///
/// Classes own no heap memory. Every class's members are linked cells in
/// one append-only arena and every class's parent entries in another, and
/// a small per-id slot holds the two lists' ends. Cells are never freed
/// before the e-graph drops, so its tables are a handful of vectors and
/// one map. The lists keep this order:
///
/// 1. A union splices the absorbed class's members after the root's, so
///    until the next rebuild a merged class lists the root's nodes, then
///    the absorbed class's, each in its own order. Rules snapshot classes
///    in the middle of a sweep and see this order.
/// 2. [`EGraph::add`] appends the new node's entry to each child's parent
///    list in operand order (twice for `Add(x, x)`).
/// 3. A union hands the absorbed class's whole parent list to rebuild,
///    tagged with the root. Rebuild re-keys the entries in list order and
///    moves each one's cell to the end of the surviving child root's list.
/// 4. Rebuild's content pass leaves each touched class's nodes and parents
///    canonical, sorted and deduplicated, written over the first cells of
///    its own lists.
/// 5. Live classes are visited in ascending id order.
///
/// The tables are recycled per thread: dropping an e-graph clears them
/// and leaves them with its thread, and that thread's next
/// [`EGraph::new`] (or [`EGraph::from_dfg`]) takes them over, so a
/// worker running design after design allocates and faults in its
/// tables once. A thread keeps at most one set and frees it when it
/// exits.
#[derive(Debug, Clone)]
pub struct EGraph {
    /// Union-find parent pointers; `uf[i] == i` marks a canonical class.
    /// `Cell` so lookups can path-halve behind `&self` — without the
    /// compression, merge cascades leave chains that turn every `find`
    /// into a long walk and large saturations quadratic.
    uf: Vec<Cell<u32>>,
    /// Per id: live flag and list ends.
    slots: Vec<Slot>,
    /// Class members. E-node `i` enters as cell `i`, the one member of
    /// class `i`, which stays the first cell of that class's list while
    /// the class lives.
    nodes: Vec<NodeCell>,
    /// Parent entries: `add` appends one cell per child.
    parents: Vec<ParentCell>,
    /// Canonical e-node → class (Fx-hashed: see [`crate::fx`]). Only
    /// ever looked up, inserted into and removed from, never iterated:
    /// its capacity, which a recycled table carries over from a larger
    /// e-graph, then cannot change any order or result.
    memo: FxHashMap<ENode, u32>,
    /// Classes whose contents need re-canonicalization after unions.
    dirty: Vec<u32>,
    /// Parent lists whose keys went stale because their class merged
    /// away: `(first cell, the surviving root at union time)`. Only these
    /// entries need congruence repair — the surviving root's own parents
    /// still canonicalize to themselves, and re-walking them on every
    /// union is what makes merge cascades quadratic.
    pending: Vec<(u32, u32)>,
}

/// An e-graph's tables, emptied, between one e-graph on a thread and
/// the next.
#[derive(Default)]
struct Tables {
    uf: Vec<Cell<u32>>,
    slots: Vec<Slot>,
    nodes: Vec<NodeCell>,
    parents: Vec<ParentCell>,
    memo: FxHashMap<ENode, u32>,
    dirty: Vec<u32>,
    pending: Vec<(u32, u32)>,
}

thread_local! {
    /// The tables of the last e-graph this thread dropped.
    static SPARE: Cell<Option<Tables>> = const { Cell::new(None) };
}

impl Default for EGraph {
    fn default() -> EGraph {
        EGraph::new()
    }
}

impl Drop for EGraph {
    /// Clears the tables and keeps them for this thread's next e-graph,
    /// unless the thread already keeps a set. While the thread is being
    /// torn down its spare is gone and the tables are simply freed.
    fn drop(&mut self) {
        fn cleared<T>(v: &mut Vec<T>) -> Vec<T> {
            let mut v = std::mem::take(v);
            v.clear();
            v
        }
        let mut memo = std::mem::take(&mut self.memo);
        memo.clear();
        let tables = Tables {
            uf: cleared(&mut self.uf),
            slots: cleared(&mut self.slots),
            nodes: cleared(&mut self.nodes),
            parents: cleared(&mut self.parents),
            memo,
            dirty: cleared(&mut self.dirty),
            pending: cleared(&mut self.pending),
        };
        let _ = SPARE.try_with(|spare| {
            let kept = spare.take();
            spare.set(Some(kept.unwrap_or(tables)));
        });
    }
}

impl EGraph {
    /// An empty e-graph, on this thread's spare tables when it has them.
    pub fn new() -> EGraph {
        let t = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        EGraph {
            uf: t.uf,
            slots: t.slots,
            nodes: t.nodes,
            parents: t.parents,
            memo: t.memo,
            dirty: t.dirty,
            pending: t.pending,
        }
    }

    fn find_u(&self, mut x: u32) -> u32 {
        loop {
            let p = self.uf[x as usize].get();
            if p == x {
                return x;
            }
            // Path halving: point x at its grandparent and step there.
            let gp = self.uf[p as usize].get();
            self.uf[x as usize].set(gp);
            x = gp;
        }
    }

    /// Canonical representative of an e-class.
    pub fn find(&self, id: Id) -> Id {
        Id(self.find_u(id.0))
    }

    fn canon(&self, n: ENode) -> ENode {
        n.map_children(&mut |c| Id(self.find_u(c.0)))
    }

    /// Total e-nodes ever created (the node-budget counter: hashconsing
    /// makes each shape count once).
    pub fn len(&self) -> usize {
        self.uf.len()
    }

    /// `true` before anything was added.
    pub fn is_empty(&self) -> bool {
        self.uf.is_empty()
    }

    /// Live (canonical) e-classes.
    pub fn class_count(&self) -> usize {
        self.slots.iter().filter(|s| s.live).count()
    }

    /// Every live class with its e-nodes, in id order.
    pub(crate) fn live_classes(&self) -> impl Iterator<Item = (Id, ClassNodes<'_>)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (Id(i as u32), ClassNodes(cells(&self.nodes, s.nodes))))
    }

    /// The e-nodes of a class, in list order (resolves the id first).
    pub(crate) fn class_nodes(&self, id: Id) -> ClassNodes<'_> {
        let slot = &self.slots[self.find_u(id.0) as usize];
        ClassNodes(cells(&self.nodes, slot.nodes))
    }

    /// Adds an e-node (hashconsed) and returns its class.
    pub fn add(&mut self, node: ENode) -> Id {
        let node = self.canon(node);
        if let Some(&c) = self.memo.get(&node) {
            return Id(self.find_u(c));
        }
        let id = self.uf.len() as u32;
        self.uf.push(Cell::new(id));
        self.nodes.push(NodeCell { node, next: NIL });
        self.slots.push(Slot {
            live: true,
            nodes: List { head: id, tail: id },
            parents: List::EMPTY,
        });
        for child in node.children().into_iter().flatten() {
            let at = self.parents.len() as u32;
            self.parents.push(ParentCell {
                node,
                class: id,
                next: NIL,
            });
            let list = &mut self.slots[child.0 as usize].parents;
            splice(&mut self.parents, list, List { head: at, tail: at });
        }
        self.memo.insert(node, id);
        Id(id)
    }

    /// Merges two e-classes; returns `true` if they were distinct. Call
    /// [`rebuild`](EGraph::rebuild) before relying on congruence again.
    pub fn union(&mut self, a: Id, b: Id) -> bool {
        let a = self.find_u(a.0);
        let b = self.find_u(b.0);
        if a == b {
            return false;
        }
        // The smaller id stays canonical — deterministic across runs.
        let (root, dead) = if a < b { (a, b) } else { (b, a) };
        self.uf[dead as usize].set(root);
        let gone = std::mem::replace(&mut self.slots[dead as usize], Slot::DEAD);
        splice(
            &mut self.nodes,
            &mut self.slots[root as usize].nodes,
            gone.nodes,
        );
        if gone.parents.head != NIL {
            self.pending.push((gone.parents.head, root));
        }
        self.dirty.push(root);
        true
    }

    /// Restores the congruence invariant after unions: re-canonicalizes
    /// the parents of every touched class and merges classes that became
    /// structurally identical, to a fixpoint.
    pub fn rebuild(&mut self) {
        self.rebuild_collect(&mut Vec::new());
    }

    /// [`EGraph::rebuild`], additionally leaving in `touched` the
    /// canonical ids of every class whose contents were re-canonicalized
    /// (sorted, deduplicated) — the seed of the saturation engine's
    /// dirty-class worklist.
    fn rebuild_collect(&mut self, touched: &mut Vec<u32>) {
        // Congruence repair: re-key exactly the parent entries whose child
        // canonicalization changed, first in, first out. An entry is
        // registered with *every* child class at add time, so whichever
        // child merges away carries it here; copies left in other
        // children's lists keep a stale key, which `canon` resolves
        // whenever their turn comes.
        let mut k = 0;
        while let Some(&(head, child)) = self.pending.get(k) {
            k += 1;
            let mut at = head;
            while let Some(&ParentCell {
                node: pnode,
                class: pclass,
                next,
            }) = self.parents.get(at as usize)
            {
                self.memo.remove(&pnode);
                let canon = self.canon(pnode);
                let mut pc = self.find_u(pclass);
                if let Some(&existing) = self.memo.get(&canon) {
                    let ex = self.find_u(existing);
                    if ex != pc {
                        self.union(Id(ex), Id(pc));
                        pc = self.find_u(pc);
                    }
                }
                self.memo.insert(canon, pc);
                // Re-attach to the surviving child root so the entry is
                // found again the next time that class merges. The cell
                // left its old list at the union, so it moves, re-keyed.
                let ch = self.find_u(child);
                self.parents[at as usize] = ParentCell {
                    node: canon,
                    class: pc,
                    next: NIL,
                };
                let list = &mut self.slots[ch as usize].parents;
                splice(&mut self.parents, list, List { head: at, tail: at });
                at = next;
            }
        }
        self.pending.clear();
        // Content pass: canonicalize and dedupe the nodes and parents of
        // every class that absorbed a merge (no new unions can arise).
        touched.clear();
        std::mem::swap(touched, &mut self.dirty);
        for c in touched.iter_mut() {
            *c = self.find_u(*c);
        }
        touched.sort_unstable();
        touched.dedup();
        let mut members: Vec<ENode> = Vec::new();
        let mut entries: Vec<(ENode, u32)> = Vec::new();
        for &c in touched.iter() {
            let slot = self.slots[c as usize];
            if !slot.live {
                continue;
            }
            members.clear();
            members.extend(cells(&self.nodes, slot.nodes).map(|n| self.canon(n.node)));
            members.sort_unstable();
            members.dedup();
            entries.clear();
            entries.extend(
                cells(&self.parents, slot.parents)
                    .map(|p| (self.canon(p.node), self.find_u(p.class))),
            );
            entries.sort_unstable();
            entries.dedup();
            let slot = &mut self.slots[c as usize];
            rewrite(&mut self.nodes, &mut slot.nodes, &members, |cell, n| {
                cell.node = n;
            });
            rewrite(
                &mut self.parents,
                &mut slot.parents,
                &entries,
                |cell, (n, pc)| {
                    cell.node = n;
                    cell.class = pc;
                },
            );
        }
    }

    /// Loads a DFG into the e-graph (hashconsing against what is already
    /// there) and returns where its sinks landed.
    ///
    /// # Errors
    ///
    /// [`EgraphError::Graph`] when the DFG fails validation and
    /// [`EgraphError::UnsupportedGraph`] when a sink node is used as a
    /// predecessor or an input's sample or channel, or a state index, does
    /// not fit in a `u32`.
    pub fn add_dfg(&mut self, g: &Dfg) -> Result<GraphRoots, EgraphError> {
        g.validate()?;
        let mut map: Vec<Option<Id>> = vec![None; g.len()];
        let mut roots = GraphRoots {
            outputs: Vec::new(),
            states: Vec::new(),
        };
        for (id, n) in g.iter() {
            let child = |k: usize| -> Result<Id, EgraphError> {
                map[n.preds[k].0].ok_or_else(|| EgraphError::UnsupportedGraph {
                    detail: format!("node {} uses a sink node as a predecessor", id.0),
                })
            };
            let leaf_index = |what: &str, v: usize| -> Result<u32, EgraphError> {
                u32::try_from(v).map_err(|_| EgraphError::UnsupportedGraph {
                    detail: format!("node {}: {what} {v} does not fit in a u32", id.0),
                })
            };
            let added = match n.kind {
                NodeKind::Input { sample, channel } => Some(self.add(ENode::Input {
                    sample: leaf_index("input sample", sample)?,
                    channel: leaf_index("input channel", channel)?,
                })),
                NodeKind::StateIn { index } => Some(self.add(ENode::StateIn {
                    index: leaf_index("state index", index)?,
                })),
                NodeKind::Const(c) => Some(self.add(ENode::Const(c.to_bits()))),
                NodeKind::Add => {
                    let (a, b) = (child(0)?, child(1)?);
                    Some(self.add(ENode::Add(a, b)))
                }
                NodeKind::Sub => {
                    let (a, b) = (child(0)?, child(1)?);
                    Some(self.add(ENode::Sub(a, b)))
                }
                NodeKind::MulConst(c) => {
                    let a = child(0)?;
                    Some(self.add(ENode::MulConst(c.to_bits(), a)))
                }
                NodeKind::Shift(s) => {
                    let a = child(0)?;
                    Some(self.add(ENode::Shift(s, a)))
                }
                NodeKind::Neg => {
                    let a = child(0)?;
                    Some(self.add(ENode::Neg(a)))
                }
                NodeKind::Delay => {
                    let a = child(0)?;
                    Some(self.add(ENode::Delay(a)))
                }
                NodeKind::Output { sample, channel } => {
                    roots.outputs.push(((sample, channel), child(0)?));
                    None
                }
                NodeKind::StateOut { index } => {
                    roots.states.push((index, child(0)?));
                    None
                }
            };
            map[id.0] = added;
        }
        Ok(roots)
    }

    /// Builds an e-graph from a DFG.
    ///
    /// # Errors
    ///
    /// Identical to [`EGraph::add_dfg`].
    pub fn from_dfg(g: &Dfg) -> Result<(EGraph, GraphRoots), EgraphError> {
        let mut eg = EGraph::new();
        let roots = eg.add_dfg(g)?;
        Ok((eg, roots))
    }

    /// Asserts that two root sets compute the same interface and unites
    /// them root-by-root — how whole-graph rewrites (Horner restructuring,
    /// shared MCM networks) enter the e-graph. Returns `true` if anything
    /// merged; the congruence invariant is restored before returning.
    ///
    /// # Errors
    ///
    /// [`EgraphError::InterfaceMismatch`] when the output keys or state
    /// indices differ (including duplicates).
    pub fn union_roots(&mut self, a: &GraphRoots, b: &GraphRoots) -> Result<bool, EgraphError> {
        let index = |r: &GraphRoots| -> (BTreeMap<(usize, usize), Id>, BTreeMap<usize, Id>) {
            (
                r.outputs.iter().copied().collect(),
                r.states.iter().copied().collect(),
            )
        };
        let (ao, as_) = index(a);
        let (bo, bs) = index(b);
        if ao.len() != a.outputs.len() || bo.len() != b.outputs.len() {
            return Err(EgraphError::InterfaceMismatch {
                detail: "duplicate output keys".to_string(),
            });
        }
        if as_.len() != a.states.len() || bs.len() != b.states.len() {
            return Err(EgraphError::InterfaceMismatch {
                detail: "duplicate state indices".to_string(),
            });
        }
        let a_keys: BTreeSet<_> = ao.keys().collect();
        let b_keys: BTreeSet<_> = bo.keys().collect();
        if a_keys != b_keys {
            return Err(EgraphError::InterfaceMismatch {
                detail: format!("output keys differ: {a_keys:?} vs {b_keys:?}"),
            });
        }
        let a_states: BTreeSet<_> = as_.keys().collect();
        let b_states: BTreeSet<_> = bs.keys().collect();
        if a_states != b_states {
            return Err(EgraphError::InterfaceMismatch {
                detail: format!("state indices differ: {a_states:?} vs {b_states:?}"),
            });
        }
        let mut changed = false;
        for (k, &ia) in &ao {
            if let Some(&ib) = bo.get(k) {
                changed |= self.union(ia, ib);
            }
        }
        for (k, &ia) in &as_ {
            if let Some(&ib) = bs.get(k) {
                changed |= self.union(ia, ib);
            }
        }
        self.rebuild();
        Ok(changed)
    }

    /// Applies the rule set to a bounded fixpoint. Never panics, never
    /// hangs, never errors: hitting a budget stops the sweep and leaves a
    /// congruent e-graph behind, so extraction still works on the best
    /// representations found so far.
    ///
    /// The engine is incremental where the naive loop rescans:
    ///
    /// * **Kind-indexed candidates** — pairs are enqueued with the rule
    ///   mask for their operator kind (`ENode::kind_ordinal`), so leaf
    ///   nodes never enter the queue and each pair dispatches only to
    ///   rules that can match it.
    /// * **Dirty-class worklist** — after the first full pass, only
    ///   classes whose contents changed, classes holding a node that
    ///   references one (every rule reads at most one level down), and
    ///   classes of freshly created e-nodes are re-matched. Skipped pairs
    ///   are provably no-ops: rule application is idempotent under
    ///   hashconsing, so the engine reaches the same fixpoint — and
    ///   performs the same sequence of e-node insertions — as
    ///   [`EGraph::saturate_reference`].
    /// * **Per-rule backoff** — a rule that fires more than an egg-style
    ///   match limit in one iteration is banned for a few iterations so
    ///   explosive rules can't starve the rest. A ban compromises
    ///   worklist coverage, so a lifted ban forces a full pass, and
    ///   `Saturated` is only ever declared after a clean pass with every
    ///   rule active.
    pub fn saturate(&mut self, rules: &RuleSet, budget: &SaturationBudget) -> SaturationStats {
        let masks = rules.node_masks();
        let mut sched = Backoff::new(rules.rules().len());
        let mut scratch = RuleScratch::default();
        let mut iterations = 0usize;
        let (mut match_s, mut apply_s, mut rebuild_s) = (0.0f64, 0.0f64, 0.0f64);
        // Scratch buffers reused across iterations: the candidate list,
        // the current worklist, the one under construction and the
        // classes the last rebuild touched.
        let mut pairs: Vec<(u32, ENode, u32)> = Vec::new();
        let mut work: Vec<u32> = Vec::new();
        let mut next_work: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        let mut full = true;
        let mut seen_len;
        let stop = 'outer: loop {
            if iterations >= budget.max_iterations {
                break StopReason::IterationBudget;
            }
            iterations += 1;
            let (banned, ban_lifted) = sched.begin(iterations);
            if ban_lifted {
                // The rule missed arbitrary pairs while banned; only a
                // full pass restores the worklist invariant.
                full = true;
            }
            // Match phase: assemble the kind-indexed candidate list.
            let t = Instant::now();
            pairs.clear();
            if full {
                for (c, nodes) in self.live_classes() {
                    for n in nodes {
                        let m = masks[n.kind_ordinal()];
                        if m != 0 {
                            pairs.push((c.0, *n, m));
                        }
                    }
                }
            } else {
                for &c in &work {
                    for n in self.class_nodes(Id(c)) {
                        let m = masks[n.kind_ordinal()];
                        if m != 0 {
                            pairs.push((c, *n, m));
                        }
                    }
                }
            }
            seen_len = self.uf.len();
            match_s += t.elapsed().as_secs_f64();
            // Apply phase: dispatch each pair to its unbanned rules.
            let t = Instant::now();
            let mut changed = false;
            for &(c, node, mask) in &pairs {
                if self.uf.len() >= budget.max_enodes {
                    apply_s += t.elapsed().as_secs_f64();
                    break 'outer StopReason::NodeBudget;
                }
                let fired = rules.apply_masked(self, Id(c), &node, mask & !banned, &mut scratch);
                if fired != 0 {
                    changed = true;
                    sched.record(fired);
                }
            }
            // Whole-graph rules (linear collection, shared MCM) run once
            // per sweep; they add at most one hub e-node per class, so
            // the budget check above still bounds growth to the same
            // order.
            if self.uf.len() >= budget.max_enodes {
                apply_s += t.elapsed().as_secs_f64();
                break 'outer StopReason::NodeBudget;
            }
            changed |= rules.sweep(self, &mut scratch);
            apply_s += t.elapsed().as_secs_f64();
            // Rebuild phase; its touched set seeds the next worklist.
            let t = Instant::now();
            self.rebuild_collect(&mut touched);
            rebuild_s += t.elapsed().as_secs_f64();
            sched.end(iterations);
            if !changed {
                if banned == 0 {
                    break StopReason::Saturated;
                }
                // Clean pass, but banned rules never saw it: unban
                // everything and re-verify the fixpoint with a full pass.
                sched.unban_all();
                full = true;
                continue;
            }
            // Next worklist: touched classes, classes holding a node that
            // references one, and the classes of e-nodes created this
            // iteration.
            let t = Instant::now();
            next_work.clear();
            for &c in &touched {
                next_work.push(c);
                for p in cells(&self.parents, self.slots[c as usize].parents) {
                    next_work.push(self.find_u(p.class));
                }
            }
            for id in seen_len..self.uf.len() {
                next_work.push(self.find_u(id as u32));
            }
            next_work.sort_unstable();
            next_work.dedup();
            next_work.retain(|&c| self.slots[c as usize].live);
            std::mem::swap(&mut work, &mut next_work);
            full = false;
            match_s += t.elapsed().as_secs_f64();
        };
        let t = Instant::now();
        self.rebuild();
        rebuild_s += t.elapsed().as_secs_f64();
        SaturationStats {
            iterations,
            enodes: self.uf.len(),
            classes: self.class_count(),
            stop,
            match_s,
            apply_s,
            rebuild_s,
        }
    }

    /// The pre-index reference engine: every `(class, node)` pair is
    /// re-matched against every rule on every iteration, with no
    /// scheduling and no worklist. Semantically the baseline for
    /// [`EGraph::saturate`] — the differential tests drive both engines
    /// over the same graphs and require identical results. Quadratically
    /// slower on large graphs; kept for testing, not for production use.
    pub fn saturate_reference(
        &mut self,
        rules: &RuleSet,
        budget: &SaturationBudget,
    ) -> SaturationStats {
        let mut scratch = RuleScratch::default();
        let mut iterations = 0;
        let stop = 'outer: loop {
            if iterations >= budget.max_iterations {
                break StopReason::IterationBudget;
            }
            iterations += 1;
            let mut pairs: Vec<(u32, ENode)> = Vec::new();
            for (c, nodes) in self.live_classes() {
                for n in nodes {
                    pairs.push((c.0, *n));
                }
            }
            let mut changed = false;
            for (c, node) in pairs {
                if self.uf.len() >= budget.max_enodes {
                    break 'outer StopReason::NodeBudget;
                }
                changed |= rules.apply(self, Id(c), &node, &mut scratch);
            }
            if self.uf.len() >= budget.max_enodes {
                break 'outer StopReason::NodeBudget;
            }
            changed |= rules.sweep(self, &mut scratch);
            self.rebuild();
            if !changed {
                break StopReason::Saturated;
            }
        };
        self.rebuild();
        SaturationStats {
            iterations,
            enodes: self.uf.len(),
            classes: self.class_count(),
            stop,
            match_s: 0.0,
            apply_s: 0.0,
            rebuild_s: 0.0,
        }
    }

    /// Minimum-cost extraction under a [`CostModel`]: per e-class, the
    /// representative minimizing `node_cost + Σ child costs` (relaxed to a
    /// fixpoint, so cyclic classes resolve to their grounded
    /// representatives), emitted as a deduplicated DAG. The reported cost
    /// is [`CostModel::graph_cost`] of the extracted graph — shared
    /// subexpressions counted once.
    ///
    /// # Errors
    ///
    /// [`EgraphError::Unextractable`] when a root class has no grounded
    /// representative.
    pub fn extract(
        &self,
        roots: &GraphRoots,
        model: &dyn CostModel,
    ) -> Result<Extraction, EgraphError> {
        self.extract_with(roots, model, Relaxation::Flat)
    }

    /// Deterministic sampling of *alternative* representatives: op-count
    /// extraction with a seeded per-(class, node) jitter, so different
    /// seeds surface different (still grounded) realizations. The property
    /// harness uses this to check that every representative simulates
    /// identically.
    ///
    /// # Errors
    ///
    /// Identical to [`EGraph::extract`].
    pub fn extract_seeded(&self, roots: &GraphRoots, seed: u64) -> Result<Extraction, EgraphError> {
        self.extract_seeded_with(roots, seed, Relaxation::Flat)
    }

    /// The straightforward extraction loop: the same relaxation as
    /// [`EGraph::extract`], but every pass re-canonicalizes every e-node,
    /// re-prices it through the cost model and re-evaluates it whether or
    /// not its children moved. Semantically the baseline for
    /// [`EGraph::extract`] — the property harness extracts with both on
    /// every rule graph and requires identical results. Slower on large
    /// e-graphs; kept for testing, not for production use.
    ///
    /// # Errors
    ///
    /// Identical to [`EGraph::extract`].
    pub fn extract_reference(
        &self,
        roots: &GraphRoots,
        model: &dyn CostModel,
    ) -> Result<Extraction, EgraphError> {
        self.extract_with(roots, model, Relaxation::Reference)
    }

    /// [`EGraph::extract_seeded`] through the reference relaxation of
    /// [`EGraph::extract_reference`] (a test oracle).
    ///
    /// # Errors
    ///
    /// Identical to [`EGraph::extract`].
    pub fn extract_seeded_reference(
        &self,
        roots: &GraphRoots,
        seed: u64,
    ) -> Result<Extraction, EgraphError> {
        self.extract_seeded_with(roots, seed, Relaxation::Reference)
    }

    fn extract_with(
        &self,
        roots: &GraphRoots,
        model: &dyn CostModel,
        relaxation: Relaxation,
    ) -> Result<Extraction, EgraphError> {
        let mut weight = |_c: u32, _i: usize, n: &ENode| model.node_cost(&n.to_kind());
        let dfg = self.extract_by(roots, &mut weight, relaxation)?;
        let cost = model.graph_cost(&dfg);
        Ok(Extraction { dfg, cost })
    }

    fn extract_seeded_with(
        &self,
        roots: &GraphRoots,
        seed: u64,
        relaxation: Relaxation,
    ) -> Result<Extraction, EgraphError> {
        let base = OpCountCost;
        let mut weight = |c: u32, i: usize, n: &ENode| {
            let mut h =
                seed ^ (u64::from(c) << 32) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // splitmix64 finalizer — deterministic, seed-sensitive.
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            base.node_cost(&n.to_kind()) + (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
        };
        let dfg = self.extract_by(roots, &mut weight, relaxation)?;
        let cost = OpCountCost.graph_cost(&dfg);
        Ok(Extraction { dfg, cost })
    }

    fn extract_by(
        &self,
        roots: &GraphRoots,
        weight: &mut dyn FnMut(u32, usize, &ENode) -> f64,
        relaxation: Relaxation,
    ) -> Result<Dfg, EgraphError> {
        let best = match relaxation {
            Relaxation::Flat => self.relax(weight),
            Relaxation::Reference => self.relax_reference(weight),
        };
        self.emit(roots, &best)
    }

    /// Per canonical class, the node minimizing `weight + Σ child costs`.
    ///
    /// Same visit order and the same strict `<` as
    /// [`EGraph::relax_reference`], but over arrays built once per call:
    /// each live class's canonical nodes, their weights and their
    /// canonical child ids. A node is re-evaluated only when one of its
    /// children improved since its last evaluation. The skip is exact: an
    /// unchanged node reproduces its last cost, which was then either the
    /// class's best or no better than it, and a class's best only falls.
    fn relax(&self, weight: &mut dyn FnMut(u32, usize, &ENode) -> f64) -> Vec<Option<ENode>> {
        const NONE: u32 = u32::MAX;
        let n = self.uf.len();
        let mut class_of: Vec<u32> = Vec::new();
        let mut nodes: Vec<ENode> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut kids: Vec<[u32; 2]> = Vec::new();
        for (Id(c), class) in self.live_classes() {
            for (i, node) in class.enumerate() {
                let node = self.canon(*node);
                let [a, b] = node.children();
                class_of.push(c);
                weights.push(weight(c, i, &node));
                kids.push([a.map_or(NONE, |a| a.0), b.map_or(NONE, |b| b.0)]);
                nodes.push(node);
            }
        }
        // cost[c] = +∞ until class c is grounded (recorded costs are
        // finite). improved[c] is the tick of c's last improvement and
        // seen[e] the tick at which node e was last evaluated.
        let mut cost = vec![f64::INFINITY; n];
        let mut choice = vec![NONE; n];
        let mut improved = vec![0u64; n];
        let mut seen = vec![0u64; nodes.len()];
        let mut tick = 0u64;
        for pass in 0..=n {
            let mut changed = false;
            for e in 0..nodes.len() {
                let [a, b] = kids[e];
                let moved = |k: u32| k != NONE && improved[k as usize] > seen[e];
                if pass > 0 && !moved(a) && !moved(b) {
                    continue;
                }
                seen[e] = tick;
                let mut total = weights[e];
                let mut grounded = true;
                for k in [a, b] {
                    if k == NONE {
                        break;
                    }
                    let kc = cost[k as usize];
                    if kc == f64::INFINITY {
                        grounded = false;
                        break;
                    }
                    total += kc;
                }
                if !grounded || !total.is_finite() {
                    continue;
                }
                let c = class_of[e] as usize;
                if total < cost[c] {
                    cost[c] = total;
                    choice[c] = e as u32;
                    tick += 1;
                    improved[c] = tick;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        choice
            .into_iter()
            .map(|e| (e != NONE).then(|| nodes[e as usize]))
            .collect()
    }

    /// The relaxation [`EGraph::extract_reference`] runs: every pass
    /// re-canonicalizes and re-prices every node of every live class.
    fn relax_reference(
        &self,
        weight: &mut dyn FnMut(u32, usize, &ENode) -> f64,
    ) -> Vec<Option<ENode>> {
        let n = self.uf.len();
        // best[c] = (cost, chosen node) for canonical class c. Relaxation
        // with strictly-improving updates: converges in at most the
        // dependency depth, and the strict inequality keeps the chosen
        // assignment acyclic.
        let mut best: Vec<Option<(f64, ENode)>> = vec![None; n];
        for _pass in 0..=n {
            let mut changed = false;
            for (Id(c), class) in self.live_classes() {
                for (i, node) in class.enumerate() {
                    let node = self.canon(*node);
                    let mut cost = weight(c, i, &node);
                    let mut grounded = true;
                    for child in node.children().into_iter().flatten() {
                        match &best[self.find_u(child.0) as usize] {
                            Some((cc, _)) => cost += cc,
                            None => {
                                grounded = false;
                                break;
                            }
                        }
                    }
                    if !grounded || !cost.is_finite() {
                        continue;
                    }
                    if best[c as usize].is_none_or(|(b, _)| cost < b) {
                        best[c as usize] = Some((cost, node));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        best.into_iter().map(|b| b.map(|(_, node)| node)).collect()
    }

    /// Emits each root's chosen representatives (`best`, per canonical
    /// class) as one deduplicated, validated DAG.
    fn emit(&self, roots: &GraphRoots, best: &[Option<ENode>]) -> Result<Dfg, EgraphError> {
        let n = self.uf.len();
        let mut dfg = Dfg::new();
        let mut node_of: Vec<Option<NodeId>> = vec![None; n];
        let mut on_stack = vec![false; n];
        enum Task {
            Visit(u32),
            Build(u32),
        }
        let mut emit_root = |dfg: &mut Dfg, root: Id| -> Result<NodeId, EgraphError> {
            let root = self.find_u(root.0);
            let mut stack = vec![Task::Visit(root)];
            while let Some(task) = stack.pop() {
                match task {
                    Task::Visit(c) => {
                        if node_of[c as usize].is_some() {
                            continue;
                        }
                        if on_stack[c as usize] {
                            return Err(EgraphError::Unextractable { class: c });
                        }
                        on_stack[c as usize] = true;
                        let Some(node) = best[c as usize] else {
                            return Err(EgraphError::Unextractable { class: c });
                        };
                        stack.push(Task::Build(c));
                        for child in node.children().into_iter().flatten() {
                            stack.push(Task::Visit(self.find_u(child.0)));
                        }
                    }
                    Task::Build(c) => {
                        let Some(node) = best[c as usize] else {
                            return Err(EgraphError::Unextractable { class: c });
                        };
                        let mut preds = [NodeId(0); 2];
                        let mut arity = 0;
                        for child in node.children().into_iter().flatten() {
                            match node_of[self.find_u(child.0) as usize] {
                                Some(id) => preds[arity] = id,
                                None => return Err(EgraphError::Unextractable { class: c }),
                            }
                            arity += 1;
                        }
                        let id = dfg.push(node.to_kind(), &preds[..arity])?;
                        node_of[c as usize] = Some(id);
                        on_stack[c as usize] = false;
                    }
                }
            }
            node_of[root as usize].ok_or(EgraphError::Unextractable { class: root })
        };
        let mut outs = Vec::with_capacity(roots.outputs.len());
        for &((sample, channel), root) in &roots.outputs {
            outs.push((sample, channel, emit_root(&mut dfg, root)?));
        }
        let mut states = Vec::with_capacity(roots.states.len());
        for &(index, root) in &roots.states {
            states.push((index, emit_root(&mut dfg, root)?));
        }
        for (sample, channel, pred) in outs {
            dfg.push(NodeKind::Output { sample, channel }, &[pred])?;
        }
        for (index, pred) in states {
            dfg.push(NodeKind::StateOut { index }, &[pred])?;
        }
        dfg.validate()?;
        Ok(dfg)
    }
}

/// Which relaxation an extraction runs: the production one, or the
/// reference loop kept as its test oracle.
#[derive(Debug, Clone, Copy)]
enum Relaxation {
    Flat,
    Reference,
}

/// Egg-style per-rule backoff. A rule that changes the e-graph more than
/// `MATCH_LIMIT << times_banned` times in one iteration is banned for
/// `BAN_LENGTH << times_banned` iterations, so an explosive rule (say,
/// CSD decomposition on a deeply unfolded graph) can't starve the others
/// inside a small iteration budget. The limits are deliberately high:
/// small graphs — everything the property harness and the differential
/// tests saturate — never trip them, which keeps the scheduled engine
/// behaviourally identical to the reference engine wherever bit-identity
/// is asserted.
struct Backoff {
    /// Productive applications per rule, this iteration.
    applied: Vec<u32>,
    /// First iteration on which the rule is active again (0 = never
    /// banned).
    banned_until: Vec<usize>,
    /// Escalation counter: each ban doubles the next limit and ban span.
    times_banned: Vec<u32>,
}

impl Backoff {
    const MATCH_LIMIT: u32 = 1000;
    const BAN_LENGTH: usize = 2;

    fn new(rules: usize) -> Backoff {
        Backoff {
            applied: vec![0; rules],
            banned_until: vec![0; rules],
            times_banned: vec![0; rules],
        }
    }

    /// Starts an iteration: resets the per-iteration counters and returns
    /// the banned-rule bitmask plus whether any ban expired right now
    /// (the caller owes a full pass to restore worklist coverage).
    fn begin(&mut self, iter: usize) -> (u32, bool) {
        let mut banned = 0u32;
        let mut lifted = false;
        for i in 0..self.applied.len() {
            self.applied[i] = 0;
            if self.banned_until[i] > iter {
                banned |= 1 << i;
            } else if self.banned_until[i] == iter {
                lifted = true;
                self.banned_until[i] = 0;
            }
        }
        (banned, lifted)
    }

    /// Tallies one pair's firing record (bit `i` = rule `i` changed the
    /// e-graph).
    fn record(&mut self, fired: u32) {
        let mut m = fired;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            self.applied[i] += 1;
        }
    }

    /// Ends an iteration: bans any rule that fired past its limit.
    fn end(&mut self, iter: usize) {
        for i in 0..self.applied.len() {
            let escalation = self.times_banned[i].min(20);
            if self.applied[i] > Self::MATCH_LIMIT << escalation {
                self.times_banned[i] += 1;
                self.banned_until[i] = iter + 1 + (Self::BAN_LENGTH << escalation);
            }
        }
    }

    /// Clears every ban (escalation counters survive), so a final clean
    /// full pass can certify the fixpoint.
    fn unban_all(&mut self) {
        self.banned_until.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RuleSet, SaturationBudget, StopReason};
    use lintra_dfg::{NodeKind, OpCountCost};
    use lintra_mcm::Recoding;

    /// y = 0.75·x + s; s' = 0.5·s — a one-pole filter fragment.
    fn small_filter() -> Dfg {
        let mut g = Dfg::new();
        let x = g
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let s = g.push(NodeKind::StateIn { index: 0 }, &[]).unwrap();
        let m = g.push(NodeKind::MulConst(0.75), &[x]).unwrap();
        let a = g.push(NodeKind::Add, &[m, s]).unwrap();
        let d = g.push(NodeKind::MulConst(0.5), &[s]).unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[a],
        )
        .unwrap();
        g.push(NodeKind::StateOut { index: 0 }, &[d]).unwrap();
        g
    }

    #[test]
    fn dfg_round_trips_through_an_unsaturated_egraph() {
        let g = small_filter();
        let (eg, roots) = EGraph::from_dfg(&g).unwrap();
        assert_eq!(roots.outputs.len(), 1);
        assert_eq!(roots.states.len(), 1);
        let ex = eg.extract(&roots, &OpCountCost).unwrap();
        assert_eq!(ex.dfg.op_counts(), g.op_counts());
        let inputs = std::collections::HashMap::from([((0usize, 0usize), 1.5)]);
        let (o1, s1) = g.simulate(&[0.25], &inputs).unwrap();
        let (o2, s2) = ex.dfg.simulate(&[0.25], &inputs).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn hashconsing_shares_identical_shapes() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Input {
            sample: 0,
            channel: 0,
        });
        let a1 = eg.add(ENode::Shift(2, x));
        let a2 = eg.add(ENode::Shift(2, x));
        assert_eq!(a1, a2);
        assert_eq!(eg.len(), 2);
    }

    #[test]
    fn congruence_merges_parents_of_merged_children() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Input {
            sample: 0,
            channel: 0,
        });
        let y = eg.add(ENode::StateIn { index: 0 });
        let fx = eg.add(ENode::Neg(x));
        let fy = eg.add(ENode::Neg(y));
        assert_ne!(eg.find(fx), eg.find(fy));
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(fx), eg.find(fy), "congruence closure");
    }

    #[test]
    fn iteration_budget_stops_gracefully() {
        let g = small_filter();
        let (mut eg, roots) = EGraph::from_dfg(&g).unwrap();
        let stats = eg.saturate(
            &RuleSet::asic(12, Recoding::Csd),
            &SaturationBudget {
                max_enodes: usize::MAX,
                max_iterations: 1,
            },
        );
        assert_eq!(stats.stop, StopReason::IterationBudget);
        assert!(!stats.saturated());
        // Best-so-far extraction still works.
        let ex = eg.extract(&roots, &OpCountCost).unwrap();
        ex.dfg.validate().unwrap();
    }

    #[test]
    fn node_budget_stops_mid_sweep() {
        let g = small_filter();
        let (mut eg, roots) = EGraph::from_dfg(&g).unwrap();
        let n = eg.len();
        let stats = eg.saturate(
            &RuleSet::asic(12, Recoding::Csd),
            &SaturationBudget {
                max_enodes: n + 2,
                max_iterations: 100,
            },
        );
        assert_eq!(stats.stop, StopReason::NodeBudget);
        let ex = eg.extract(&roots, &OpCountCost).unwrap();
        ex.dfg.validate().unwrap();
    }

    #[test]
    fn union_roots_requires_matching_interfaces() {
        let g = small_filter();
        let mut eg = EGraph::new();
        let a = eg.add_dfg(&g).unwrap();

        let mut other = Dfg::new();
        let x = other
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        other
            .push(
                NodeKind::Output {
                    sample: 0,
                    channel: 0,
                },
                &[x],
            )
            .unwrap();
        let b = eg.add_dfg(&other).unwrap();
        let err = eg.union_roots(&a, &b).unwrap_err();
        assert!(matches!(err, EgraphError::InterfaceMismatch { .. }));
        assert!(err.to_string().contains("state indices differ"));
    }

    #[test]
    fn union_roots_refuses_duplicate_state_indices() {
        // Two next-state sinks for state 0 in each graph: the BTreeMap
        // index would keep only the last pair and unite it silently.
        let twice_state_zero = |c: f64| {
            let mut g = Dfg::new();
            let s = g.push(NodeKind::StateIn { index: 0 }, &[]).unwrap();
            let m = g.push(NodeKind::MulConst(c), &[s]).unwrap();
            g.push(NodeKind::StateOut { index: 0 }, &[s]).unwrap();
            g.push(NodeKind::StateOut { index: 0 }, &[m]).unwrap();
            g
        };
        let (a, b) = (twice_state_zero(0.5), twice_state_zero(0.25));
        a.validate().unwrap();
        let mut eg = EGraph::new();
        let ra = eg.add_dfg(&a).unwrap();
        let rb = eg.add_dfg(&b).unwrap();
        let err = eg.union_roots(&ra, &rb).unwrap_err();
        assert!(matches!(err, EgraphError::InterfaceMismatch { .. }));
        assert!(err.to_string().contains("duplicate state indices"), "{err}");
    }

    #[test]
    fn union_roots_merges_equivalent_realizations() {
        // Same computation written two ways: 4·x vs x ≪ 2.
        let mut mul = Dfg::new();
        let x = mul
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let m = mul.push(NodeKind::MulConst(4.0), &[x]).unwrap();
        mul.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[m],
        )
        .unwrap();

        let mut shift = Dfg::new();
        let x2 = shift
            .push(
                NodeKind::Input {
                    sample: 0,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        let s = shift.push(NodeKind::Shift(2), &[x2]).unwrap();
        shift
            .push(
                NodeKind::Output {
                    sample: 0,
                    channel: 0,
                },
                &[s],
            )
            .unwrap();

        let mut eg = EGraph::new();
        let a = eg.add_dfg(&mul).unwrap();
        let b = eg.add_dfg(&shift).unwrap();
        assert!(eg.union_roots(&a, &b).unwrap());
        // After the union the cheaper form (the shift) wins extraction
        // under a model that prices multipliers above shifts.
        let model = lintra_dfg::CycleCost {
            w_mul: 3.0,
            w_add: 1.0,
        };
        let ex = eg.extract(&a, &model).unwrap();
        assert_eq!(ex.dfg.op_counts().muls, 0);
        assert_eq!(ex.dfg.op_counts().shifts, 1);
    }

    #[test]
    fn seeded_extraction_is_deterministic_and_varies_with_seed() {
        let g = small_filter();
        let (mut eg, roots) = EGraph::from_dfg(&g).unwrap();
        eg.saturate(&RuleSet::exact(), &SaturationBudget::default());
        let e1 = eg.extract_seeded(&roots, 42).unwrap();
        let e2 = eg.extract_seeded(&roots, 42).unwrap();
        assert_eq!(e1, e2, "same seed, same extraction");
        // Different seeds may pick different representatives; every one
        // must still be a valid graph.
        for seed in 0..8 {
            let e = eg.extract_seeded(&roots, seed).unwrap();
            e.dfg.validate().unwrap();
        }
    }

    #[test]
    fn unextractable_class_is_an_error_not_a_hang() {
        // A class whose only member references itself through a cycle:
        // x = Neg(y), y = Neg(x) unioned with nothing grounded.
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Input {
            sample: 0,
            channel: 0,
        });
        let a = eg.add(ENode::Neg(x));
        // Make `a`'s class self-referential only: union a with Neg(a).
        let na = eg.add(ENode::Neg(a));
        eg.union(a, na);
        eg.rebuild();
        // `a` still extracts (Neg(x) is grounded), proving cyclic class
        // membership alone is not fatal.
        let roots = GraphRoots {
            outputs: vec![((0, 0), a)],
            states: vec![],
        };
        let ex = eg.extract(&roots, &OpCountCost).unwrap();
        ex.dfg.validate().unwrap();
    }

    #[test]
    fn out_of_range_leaf_indices_are_refused_not_truncated() {
        let too_big = u32::MAX as usize + 1;
        let mut g = Dfg::new();
        let x = g
            .push(
                NodeKind::Input {
                    sample: too_big,
                    channel: 0,
                },
                &[],
            )
            .unwrap();
        g.push(
            NodeKind::Output {
                sample: 0,
                channel: 0,
            },
            &[x],
        )
        .unwrap();
        let err = EGraph::from_dfg(&g).unwrap_err();
        assert!(
            matches!(&err, EgraphError::UnsupportedGraph { detail } if detail.contains("input sample 4294967296")),
            "{err}"
        );
        // The largest representable index still round-trips.
        let mut g = Dfg::new();
        let s = g
            .push(
                NodeKind::StateIn {
                    index: u32::MAX as usize,
                },
                &[],
            )
            .unwrap();
        g.push(
            NodeKind::StateOut {
                index: u32::MAX as usize,
            },
            &[s],
        )
        .unwrap();
        let (eg, roots) = EGraph::from_dfg(&g).unwrap();
        let ex = eg.extract(&roots, &OpCountCost).unwrap();
        assert!(ex.dfg.iter().any(|(_, n)| n.kind
            == NodeKind::StateIn {
                index: u32::MAX as usize
            }));
    }

    fn nodes_of(eg: &EGraph, id: Id) -> Vec<ENode> {
        eg.class_nodes(id).copied().collect()
    }

    fn parents_of(eg: &EGraph, id: Id) -> Vec<(ENode, u32)> {
        let slot = eg.slots[eg.find(id).index()];
        cells(&eg.parents, slot.parents)
            .map(|p| (p.node, p.class))
            .collect()
    }

    #[test]
    fn a_merged_class_lists_the_roots_nodes_then_the_absorbed_ones_until_rebuild() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Input {
            sample: 0,
            channel: 0,
        });
        let y = eg.add(ENode::StateIn { index: 0 });
        // Two classes of two members each, listed against `ENode`'s order
        // (`Shift` sorts before `Neg`).
        let r = eg.add(ENode::Neg(x));
        let r2 = eg.add(ENode::Shift(1, x));
        let d = eg.add(ENode::Neg(y));
        let d2 = eg.add(ENode::Shift(2, y));
        assert!(eg.union(r, r2));
        assert!(eg.union(d2, d));
        // The smaller id stays the root, whichever side names it.
        assert!(eg.union(d, r));
        assert_eq!(eg.find(d), r);
        let spliced = [
            ENode::Neg(x),
            ENode::Shift(1, x),
            ENode::Neg(y),
            ENode::Shift(2, y),
        ];
        assert_eq!(nodes_of(&eg, d), spliced);
        // An add does not disturb the order either.
        eg.add(ENode::Neg(r));
        assert_eq!(nodes_of(&eg, r), spliced);
        eg.rebuild();
        assert_eq!(
            nodes_of(&eg, r),
            [
                ENode::Shift(1, x),
                ENode::Shift(2, y),
                ENode::Neg(x),
                ENode::Neg(y),
            ]
        );
    }

    #[test]
    fn rebuild_leaves_touched_classes_canonical_sorted_and_deduplicated() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Input {
            sample: 0,
            channel: 0,
        });
        let y = eg.add(ENode::StateIn { index: 0 });
        let z = eg.add(ENode::StateIn { index: 1 });
        let nx = eg.add(ENode::Neg(x));
        let ny = eg.add(ENode::Neg(y));
        let xz = eg.add(ENode::Add(x, z));
        let zy = eg.add(ENode::Add(z, y));
        let xy = eg.add(ENode::Add(x, y));
        eg.union(y, x);
        let mut touched = Vec::new();
        eg.rebuild_collect(&mut touched);
        assert_eq!(eg.find(ny), nx, "congruence");
        assert_eq!(touched, [x.0, nx.0]);
        for &c in &touched {
            let nodes = nodes_of(&eg, Id(c));
            let mut want: Vec<ENode> = nodes.iter().map(|&n| eg.canon(n)).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(nodes, want, "class {c}'s nodes");
            let parents = parents_of(&eg, Id(c));
            let mut want: Vec<(ENode, u32)> = parents
                .iter()
                .map(|&(n, pc)| (eg.canon(n), eg.find_u(pc)))
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(parents, want, "class {c}'s parents");
        }
        assert_eq!(nodes_of(&eg, nx), [ENode::Neg(x)]);
        // Six entries were registered with x and y; four distinct remain.
        assert_eq!(
            parents_of(&eg, x),
            [
                (ENode::Add(x, x), xy.0),
                (ENode::Add(x, z), xz.0),
                (ENode::Add(z, x), zy.0),
                (ENode::Neg(x), nx.0),
            ]
        );
    }

    #[test]
    fn every_added_enode_canonicalizes_to_a_memo_entry_in_its_own_class() {
        // A seeded stream of adds over arbitrary (often merged-away) ids,
        // unions and rebuilds; splitmix64 as in `extract_seeded`.
        let mut state = 0x6172_656e_6173_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut h = state;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((h ^ (h >> 31)) % n as u64) as usize
        };
        let check = |eg: &EGraph, added: &[(ENode, Id)]| {
            for &(node, id) in added {
                let key = eg.canon(node);
                let Some(&c) = eg.memo.get(&key) else {
                    panic!("{node:?} (now {key:?}) has no memo entry");
                };
                assert_eq!(eg.find(Id(c)), eg.find(id), "{node:?} left its class");
            }
            for (c, nodes) in eg.live_classes() {
                for &node in nodes {
                    assert_eq!(
                        eg.memo.get(&eg.canon(node)).map(|&m| eg.find_u(m)),
                        Some(c.0)
                    );
                }
            }
        };
        let mut eg = EGraph::new();
        let mut added = Vec::new();
        for index in 0..4 {
            let node = ENode::StateIn { index };
            added.push((node, eg.add(node)));
        }
        for step in 0..600 {
            let mut pick = || Id(below(eg.len()) as u32);
            let (a, b) = (pick(), pick());
            let node = match below(5) {
                0 => ENode::Add(a, b),
                1 => ENode::Sub(a, b),
                2 => ENode::Neg(a),
                3 => ENode::Shift(below(3) as i32, a),
                _ => ENode::MulConst([0.5f64, 3.0][below(2)].to_bits(), a),
            };
            added.push((node, eg.add(node)));
            if below(4) == 0 {
                let mut pick = || Id(below(eg.len()) as u32);
                let (u, v) = (pick(), pick());
                eg.union(u, v);
            }
            if step % 50 == 49 {
                eg.rebuild();
                check(&eg, &added);
            }
        }
        assert!(eg.class_count() < eg.len() / 2, "unions merged too little");
    }

    fn capacities(eg: &EGraph) -> [usize; 7] {
        [
            eg.uf.capacity(),
            eg.slots.capacity(),
            eg.nodes.capacity(),
            eg.parents.capacity(),
            eg.memo.capacity(),
            eg.dirty.capacity(),
            eg.pending.capacity(),
        ]
    }

    #[test]
    fn the_next_egraph_on_a_thread_reuses_the_dropped_ones_tables_empty() {
        // A thread of its own: no earlier e-graph left tables behind.
        std::thread::spawn(|| {
            let (mut eg, _) = EGraph::from_dfg(&small_filter()).unwrap();
            eg.saturate(
                &RuleSet::asic(12, Recoding::Csd),
                &SaturationBudget::default(),
            );
            // Leave a union of two classes with parents unrebuilt, so both
            // rebuild queues hold entries.
            let x = eg.add(ENode::Input {
                sample: 0,
                channel: 0,
            });
            let s = eg.add(ENode::StateIn { index: 0 });
            assert!(eg.union(x, s));
            assert!(!eg.dirty.is_empty() && !eg.pending.is_empty());
            let used = capacities(&eg);
            assert!(used.iter().all(|&c| c > 0), "{used:?}");
            drop(eg);

            let fresh = EGraph::new();
            assert_eq!(capacities(&fresh), used);
            assert!(fresh.is_empty());
            assert_eq!(fresh.class_count(), 0);
            assert!(fresh.slots.is_empty() && fresh.nodes.is_empty() && fresh.parents.is_empty());
            assert!(fresh.memo.is_empty());
            assert!(fresh.dirty.is_empty() && fresh.pending.is_empty());
            // It holds the thread's one spare: a second e-graph alive at
            // the same time starts on tables of its own.
            assert_eq!(capacities(&EGraph::new()), [0; 7]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn errors_display_and_chain() {
        let e = EgraphError::Budget {
            iterations: 3,
            enodes: 99,
        };
        assert!(e.to_string().contains("3 iterations"));
        let g = EgraphError::InterfaceMismatch { detail: "x".into() };
        assert!(g.to_string().contains("different interfaces"));
    }
}
