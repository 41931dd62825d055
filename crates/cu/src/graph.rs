//! The CU graph (§3.4): vertices are computational units, edges are data
//! dependences following Table 3.1, plus the condensation machinery used by
//! MPMD task detection (§4.2.2, Fig. 4.5) and DOT export (Figs. 3.6/3.7).

use fxhash::{FxHashMap, FxHashSet};
use profiler::DepType;

/// Index of a CU within its graph.
pub type CuId = usize;

/// An edge `from → to` meaning "`from` depends on `to`" (the sink of the
/// dependence points at its source, as in §3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CuEdge {
    /// The dependent (later) CU.
    pub from: CuId,
    /// The depended-on (earlier) CU.
    pub to: CuId,
    /// Dependence type.
    pub ty: DepType,
    /// True when the underlying dependence is loop-carried.
    pub carried: bool,
}

/// A CU graph over any vertex payload `V` (the `build` module instantiates
/// it with [`crate::build::Cu`]).
#[derive(Debug, Clone)]
pub struct CuGraph<V> {
    /// Vertex payloads.
    pub cus: Vec<V>,
    /// Dependence edges (deduplicated), in insertion order.
    pub edges: Vec<CuEdge>,
    /// The edges again, for [`CuGraph::add_edge`]'s duplicate check.
    seen: FxHashSet<CuEdge>,
}

/// A graph's vertices, and the edges that stay inside one part, split by a
/// key of the vertex — CUs by function, so that a pass over one function's
/// CUs does not walk the whole program's ([`CuGraph::partition`]).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Vertex ids per part, ascending.
    pub cus: Vec<Vec<CuId>>,
    /// Edges with both ends in the part, in graph order.
    pub edges: Vec<Vec<CuEdge>>,
}

impl<V> CuGraph<V> {
    /// An empty graph.
    pub fn new() -> Self {
        CuGraph {
            cus: Vec::new(),
            edges: Vec::new(),
            seen: FxHashSet::default(),
        }
    }

    /// Split the graph into `parts` parts by `part_of`.
    pub fn partition(&self, parts: usize, part_of: impl Fn(&V) -> usize) -> Partition {
        let mut split = Partition {
            cus: vec![Vec::new(); parts],
            edges: vec![Vec::new(); parts],
        };
        for (id, v) in self.cus.iter().enumerate() {
            split.cus[part_of(v)].push(id);
        }
        for e in &self.edges {
            let part = part_of(&self.cus[e.from]);
            if part == part_of(&self.cus[e.to]) {
                split.edges[part].push(*e);
            }
        }
        split
    }

    /// Add a vertex, returning its id.
    pub fn add_cu(&mut self, v: V) -> CuId {
        self.cus.push(v);
        self.cus.len() - 1
    }

    /// Add an edge applying the Table 3.1 rules: WAR/WAW self-loops are
    /// dropped (they contribute nothing to parallelism discovery); RAW
    /// self-loops are kept (the iterative read-compute-write pattern).
    /// Returns true if the edge was stored.
    pub fn add_edge(&mut self, e: CuEdge) -> bool {
        if e.from == e.to && e.ty != DepType::Raw {
            return false;
        }
        if e.ty == DepType::Init {
            return false;
        }
        if !self.seen.insert(e) {
            return false;
        }
        self.edges.push(e);
        true
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.cus.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.cus.is_empty()
    }

    /// The RAW edges (the true-dependence skeleton) as `(from, to)`
    /// pairs, in edge order.
    fn raw_pairs(&self) -> Vec<(CuId, CuId)> {
        self.edges
            .iter()
            .filter(|e| e.ty == DepType::Raw)
            .map(|e| (e.from, e.to))
            .collect()
    }

    /// Is there a (non-empty) RAW path from `a` to `b` — does `a`
    /// transitively depend on `b`?
    pub fn depends_on(&self, a: CuId, b: CuId) -> bool {
        let succ = Rows::successors(self.len(), &self.raw_pairs());
        let mut seen = vec![false; self.cus.len()];
        let mut stack: Vec<CuId> = succ.row(a).to_vec();
        while let Some(n) = stack.pop() {
            if n == b {
                return true;
            }
            if seen[n] {
                continue;
            }
            seen[n] = true;
            stack.extend_from_slice(succ.row(n));
        }
        false
    }

    /// Two CUs are *independent* when neither transitively depends on the
    /// other — they can run in parallel (Bernstein on the CU graph).
    pub fn independent(&self, a: CuId, b: CuId) -> bool {
        a != b && !self.depends_on(a, b) && !self.depends_on(b, a)
    }

    /// Strongly connected components over RAW edges (Tarjan, iterative).
    /// Returns `component[cu] = scc index`; indices are in reverse
    /// topological order of the condensation.
    pub fn sccs(&self) -> Vec<usize> {
        sccs(&Rows::successors(self.len(), &self.raw_pairs()))
    }

    /// Condense the graph: SCCs become single vertices, then *chains* —
    /// maximal linear sequences where each vertex has exactly one RAW
    /// predecessor and one successor — are further merged (Fig. 4.5).
    pub fn condense(&self) -> Condensation {
        Condensation::of_raw(self.len(), &self.raw_pairs())
    }
}

/// A graph condensed by [`CuGraph::condense`]: SCCs, then chains, merged
/// into groups (Fig. 4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// The SCC of each CU, as [`CuGraph::sccs`] numbers them.
    pub scc: Vec<usize>,
    /// SCC edges `(a, b)`, "`a` depends on `b`", ascending.
    pub scc_edges: Vec<(usize, usize)>,
    /// The group of each CU.
    pub group: Vec<usize>,
    /// Number of groups; group ids are `0..groups`.
    pub groups: usize,
    /// Group edges `(a, b)`, "`a` depends on `b`", ascending.
    pub edges: Vec<(usize, usize)>,
}

impl Condensation {
    /// The condensation of the subgraph over `ids`: vertex `i` is CU
    /// `ids[i]`, and every RAW edge of `edges` with both ends among `ids`
    /// is kept, renumbered. `edges` may be any superset of the graph's
    /// edges among `ids` — the [`Partition`] entry of the part `ids` come
    /// from.
    pub fn of_subgraph(ids: &[CuId], edges: &[CuEdge]) -> Condensation {
        let local: FxHashMap<CuId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut raw = Vec::with_capacity(edges.len());
        raw.extend(
            edges
                .iter()
                .filter(|e| e.ty == DepType::Raw)
                .filter_map(|e| Some((*local.get(&e.from)?, *local.get(&e.to)?))),
        );
        Condensation::of_raw(ids.len(), &raw)
    }

    /// SCCs, then chains, over vertices `0..n` and the RAW edges `raw`.
    fn of_raw(n: usize, raw: &[(usize, usize)]) -> Condensation {
        let comp = sccs(&Rows::successors(n, raw));
        let ncomp = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
        // Build the SCC DAG (edges follow dependence direction from → to).
        let mut dag_edges = Vec::with_capacity(raw.len());
        dag_edges.extend(
            raw.iter()
                .filter(|&&(a, b)| comp[a] != comp[b])
                .map(|&(a, b)| (comp[a], comp[b])),
        );
        dag_edges.sort_unstable();
        dag_edges.dedup();
        let mut in_deg = vec![0usize; ncomp];
        for &(_, b) in &dag_edges {
            in_deg[b] += 1;
        }
        // Union chains: a → b merge when a's one out-edge is b's one
        // in-edge.
        let mut parent: Vec<usize> = (0..ncomp).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != c {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        for out in dag_edges.chunk_by(|x, y| x.0 == y.0) {
            if let &[(a, b)] = out {
                if in_deg[b] == 1 {
                    let ra = find(&mut parent, a);
                    let rb = find(&mut parent, b);
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Renumber groups densely, in cu order.
        let mut remap = vec![usize::MAX; ncomp];
        let mut groups = 0;
        let mut group = vec![0usize; n];
        for (cu, &c) in comp.iter().enumerate() {
            let root = find(&mut parent, c);
            if remap[root] == usize::MAX {
                remap[root] = groups;
                groups += 1;
            }
            group[cu] = remap[root];
        }
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(dag_edges.len());
        for &(a, b) in &dag_edges {
            let (ga, gb) = (remap[find(&mut parent, a)], remap[find(&mut parent, b)]);
            if ga != gb {
                edges.push((ga, gb));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Condensation {
            scc: comp,
            scc_edges: dag_edges,
            group,
            groups,
            edges,
        }
    }

    /// Topological layers of the group DAG: groups in the same layer are
    /// mutually independent. Used for pipeline-stage and MPMD analysis.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        // Edge a → b means a depends on b, so b must be "earlier": b → a in
        // execution order.
        let succ = Rows::new(self.groups, self.edges.iter().map(|&(a, b)| (b, a)));
        let mut indeg = vec![0usize; self.groups];
        for &(a, _) in &self.edges {
            indeg[a] += 1;
        }
        let mut layers = Vec::new();
        let mut ready: Vec<usize> = (0..self.groups).filter(|&g| indeg[g] == 0).collect();
        let mut seen = 0;
        while !ready.is_empty() {
            let mut next = Vec::new();
            for &g in &ready {
                seen += 1;
                for &s in succ.row(g) {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        next.push(s);
                    }
                }
            }
            layers.push(std::mem::replace(&mut ready, next));
        }
        debug_assert_eq!(seen, self.groups, "condensation must be acyclic");
        layers
    }
}

/// Adjacency lists in one allocation: row `v` is `to[start[v]..start[v + 1]]`,
/// its targets in the order the pairs came.
struct Rows {
    start: Vec<usize>,
    to: Vec<usize>,
}

impl Rows {
    /// Rows over vertices `0..n` from `(vertex, target)` pairs.
    fn new(n: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Rows {
        let mut start = vec![0usize; n + 1];
        for (v, _) in pairs.clone() {
            start[v + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut to = vec![0usize; start[n]];
        // `start[v]` counts up to row `v`'s end while filling, then steps
        // back one row.
        for (v, w) in pairs {
            to[start[v]] = w;
            start[v] += 1;
        }
        for v in (1..=n).rev() {
            start[v] = start[v - 1];
        }
        start[0] = 0;
        Rows { start, to }
    }

    /// Successor rows over vertices `0..n` from `(from, to)` pairs,
    /// self-loops left out.
    fn successors(n: usize, pairs: &[(usize, usize)]) -> Rows {
        Rows::new(n, pairs.iter().copied().filter(|&(a, b)| a != b))
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn row(&self, v: usize) -> &[usize] {
        &self.to[self.start[v]..self.start[v + 1]]
    }
}

/// [`CuGraph::sccs`] over successor rows.
fn sccs(succ: &Rows) -> Vec<usize> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    // Iterative Tarjan with an explicit call stack.
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    let mut call: Vec<Frame> = Vec::with_capacity(n);
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push(Frame::Enter(start));
        while let Some(f) = call.pop() {
            match f {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    call.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descended = false;
                    let row = succ.row(v);
                    while i < row.len() {
                        let w = row[i];
                        i += 1;
                        if index[w] == usize::MAX {
                            call.push(Frame::Resume(v, i));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if comp[w] == usize::MAX {
                            // Visited and in no component yet: on the
                            // stack.
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        // `v` is on the stack: it was pushed on entry
                        // and only a root pops.
                        while let Some(w) = stack.pop() {
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    // Propagate low to parent.
                    if let Some(Frame::Resume(p, _)) = call.last() {
                        let p = *p;
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
    }
    comp
}

impl<V> Default for CuGraph<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Render the graph in Graphviz DOT form; `label` renders each vertex.
pub fn to_dot<V>(g: &CuGraph<V>, name: &str, label: &dyn Fn(CuId, &V) -> String) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  node [shape=box];");
    for (i, v) in g.cus.iter().enumerate() {
        let _ = writeln!(out, "  cu{} [label=\"{}\"];", i, label(i, v));
    }
    for e in &g.edges {
        let color = match e.ty {
            DepType::Raw => "red",
            DepType::War => "blue",
            DepType::Waw => "green",
            DepType::Init => "gray",
        };
        let style = if e.carried { "dashed" } else { "solid" };
        let _ = writeln!(
            out,
            "  cu{} -> cu{} [color={color}, style={style}];",
            e.from, e.to
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(from: CuId, to: CuId) -> CuEdge {
        CuEdge {
            from,
            to,
            ty: DepType::Raw,
            carried: false,
        }
    }

    #[test]
    fn table_3_1_edge_rules() {
        let mut g: CuGraph<u32> = CuGraph::new();
        let a = g.add_cu(0);
        // RAW self-loop kept.
        assert!(g.add_edge(raw(a, a)));
        // WAR/WAW self-loops dropped.
        assert!(!g.add_edge(CuEdge {
            from: a,
            to: a,
            ty: DepType::War,
            carried: false
        }));
        assert!(!g.add_edge(CuEdge {
            from: a,
            to: a,
            ty: DepType::Waw,
            carried: false
        }));
        // Duplicates dropped.
        assert!(!g.add_edge(raw(a, a)));
    }

    #[test]
    fn independence_query() {
        let mut g: CuGraph<u32> = CuGraph::new();
        let a = g.add_cu(0);
        let b = g.add_cu(1);
        let c = g.add_cu(2);
        g.add_edge(raw(b, a)); // b depends on a
        assert!(!g.independent(a, b));
        assert!(g.independent(b, c));
        assert!(g.independent(a, c));
    }

    #[test]
    fn scc_detects_cycle() {
        let mut g: CuGraph<u32> = CuGraph::new();
        let a = g.add_cu(0);
        let b = g.add_cu(1);
        let c = g.add_cu(2);
        g.add_edge(raw(a, b));
        g.add_edge(raw(b, a));
        g.add_edge(raw(c, a));
        let comp = g.sccs();
        assert_eq!(comp[a], comp[b]);
        assert_ne!(comp[a], comp[c]);
    }

    #[test]
    fn chain_condensation_merges_linear_sequences() {
        // a <- b <- c (a chain) plus d independent.
        let mut g: CuGraph<u32> = CuGraph::new();
        let a = g.add_cu(0);
        let b = g.add_cu(1);
        let c = g.add_cu(2);
        let d = g.add_cu(3);
        g.add_edge(raw(b, a));
        g.add_edge(raw(c, b));
        let cond = g.condense();
        assert_eq!(cond.groups, 2);
        assert_eq!(cond.group[a], cond.group[b]);
        assert_eq!(cond.group[b], cond.group[c]);
        assert_ne!(cond.group[a], cond.group[d]);
        assert_eq!(cond.edges, Vec::new());
    }

    #[test]
    fn condense_keeps_fork_join_structure() {
        // root <- left, root <- right, sink <- left, sink <- right:
        // diamond; left and right must stay separate groups.
        let mut g: CuGraph<u32> = CuGraph::new();
        let root = g.add_cu(0);
        let left = g.add_cu(1);
        let right = g.add_cu(2);
        let sink = g.add_cu(3);
        g.add_edge(raw(left, root));
        g.add_edge(raw(right, root));
        g.add_edge(raw(sink, left));
        g.add_edge(raw(sink, right));
        let c = g.condense();
        assert_eq!(c.groups, 4);
        assert_ne!(c.group[left], c.group[right]);
        let layers = c.layers();
        // root | {left, right} | sink.
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[1].len(), 2);
        let _ = (root, sink);
    }

    #[test]
    fn dot_export_contains_edges() {
        let mut g: CuGraph<u32> = CuGraph::new();
        let a = g.add_cu(7);
        let b = g.add_cu(8);
        g.add_edge(raw(b, a));
        let dot = to_dot(&g, "test", &|i, v| format!("cu{i}:{v}"));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("cu1 -> cu0"));
        assert!(dot.contains("color=red"));
    }
}
