//! The CU graph (§3.4): vertices are computational units, edges are data
//! dependences following Table 3.1, plus the condensation machinery used by
//! MPMD task detection (§4.2.2, Fig. 4.5) and DOT export (Figs. 3.6/3.7).

use fxhash::{FxHashMap, FxHashSet};
use profiler::DepType;
use std::collections::BTreeSet;

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

    /// The subgraph over `ids`: vertex `i` carries `payload(ids[i])`, and
    /// every edge of `edges` with both ends among `ids` is kept, renumbered.
    /// `edges` may be any superset of the graph's edges among `ids` — the
    /// [`Partition`] entry of the part `ids` come from.
    pub fn induced(ids: &[CuId], edges: &[CuEdge], payload: impl Fn(CuId) -> V) -> CuGraph<V> {
        let mut sub = CuGraph::new();
        let mut local: FxHashMap<CuId, CuId> = fxhash::map_with_capacity(ids.len());
        for &id in ids {
            local.insert(id, sub.add_cu(payload(id)));
        }
        for e in edges {
            if let (Some(&from), Some(&to)) = (local.get(&e.from), local.get(&e.to)) {
                sub.add_edge(CuEdge { from, to, ..*e });
            }
        }
        sub
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

    /// Successor lists over RAW edges only (the true-dependence skeleton).
    pub fn raw_successors(&self) -> Vec<Vec<CuId>> {
        let mut succ = vec![Vec::new(); self.cus.len()];
        for e in &self.edges {
            if e.ty == DepType::Raw && e.from != e.to {
                succ[e.from].push(e.to);
            }
        }
        succ
    }

    /// Is there a (non-empty) RAW path from `a` to `b` — does `a`
    /// transitively depend on `b`?
    pub fn depends_on(&self, a: CuId, b: CuId) -> bool {
        let succ = self.raw_successors();
        let mut seen = vec![false; self.cus.len()];
        let mut stack: Vec<CuId> = succ[a].clone();
        while let Some(n) = stack.pop() {
            if n == b {
                return true;
            }
            if seen[n] {
                continue;
            }
            seen[n] = true;
            stack.extend(succ[n].iter().copied());
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
        let n = self.cus.len();
        let succ = self.raw_successors();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp = vec![usize::MAX; n];
        let mut next_index = 0usize;
        let mut next_comp = 0usize;

        // Iterative Tarjan with an explicit call stack.
        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call = vec![Frame::Enter(start)];
            while let Some(f) = call.pop() {
                match f {
                    Frame::Enter(v) => {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        call.push(Frame::Resume(v, 0));
                    }
                    Frame::Resume(v, mut i) => {
                        let mut descended = false;
                        while i < succ[v].len() {
                            let w = succ[v][i];
                            i += 1;
                            if index[w] == usize::MAX {
                                call.push(Frame::Resume(v, i));
                                call.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if on_stack[w] {
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
                                on_stack[w] = false;
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

    /// Condense the graph: SCCs become single vertices, then *chains* —
    /// maximal linear sequences where each vertex has exactly one RAW
    /// predecessor and one successor — are further merged (Fig. 4.5).
    /// Returns `(group[cu] = group index, number of groups, group edges)`.
    pub fn condense(&self) -> (Vec<usize>, usize, Vec<(usize, usize)>) {
        let comp = self.sccs();
        let ncomp = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
        // Build the SCC DAG (edges follow dependence direction from → to).
        let mut dag_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for e in &self.edges {
            if e.ty == DepType::Raw && comp[e.from] != comp[e.to] {
                dag_edges.insert((comp[e.from], comp[e.to]));
            }
        }
        // In/out degree per SCC.
        let mut out_deg = vec![0usize; ncomp];
        let mut in_deg = vec![0usize; ncomp];
        let mut out_to = vec![usize::MAX; ncomp];
        let mut in_from = vec![usize::MAX; ncomp];
        for &(a, b) in &dag_edges {
            out_deg[a] += 1;
            out_to[a] = b;
            in_deg[b] += 1;
            in_from[b] = a;
        }
        // Union chains: a → b merge when out_deg[a]==1 and in_deg[b]==1.
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
        for a in 0..ncomp {
            if out_deg[a] == 1 {
                let b = out_to[a];
                if in_deg[b] == 1 {
                    let ra = find(&mut parent, a);
                    let rb = find(&mut parent, b);
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Renumber groups densely (group ids follow cu order, so the map
        // is lookup-only and hash order cannot leak into the output).
        let mut remap: FxHashMap<usize, usize> = FxHashMap::default();
        let mut group = vec![0usize; self.cus.len()];
        for (cu, &c) in comp.iter().enumerate() {
            let root = find(&mut parent, c);
            let next = remap.len();
            let g = *remap.entry(root).or_insert(next);
            group[cu] = g;
        }
        let ngroups = remap.len();
        // Every member of a component is in the same group: any one names it.
        let mut group_of_comp = vec![0usize; ncomp];
        for (cu, &c) in comp.iter().enumerate() {
            group_of_comp[c] = group[cu];
        }
        let mut gedges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &(a, b) in &dag_edges {
            let (ga, gb) = (group_of_comp[a], group_of_comp[b]);
            if ga != gb {
                gedges.insert((ga, gb));
            }
        }
        (group, ngroups, gedges.into_iter().collect())
    }

    /// Topological layers of the RAW DAG over condensation groups: groups
    /// in the same layer are mutually independent. Used for pipeline-stage
    /// and MPMD analysis.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let (_, ngroups, gedges) = self.condense();
        // Edge a → b means a depends on b, so b must be "earlier".
        let mut indeg = vec![0usize; ngroups];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
        for &(a, b) in &gedges {
            // b → a in execution order.
            succ[b].push(a);
            indeg[a] += 1;
        }
        let mut layer = Vec::new();
        let mut ready: Vec<usize> = (0..ngroups).filter(|&g| indeg[g] == 0).collect();
        let mut seen = 0;
        while !ready.is_empty() {
            layer.push(ready.clone());
            let mut next = Vec::new();
            for &g in &ready {
                seen += 1;
                for &s in &succ[g] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        next.push(s);
                    }
                }
            }
            ready = next;
        }
        debug_assert_eq!(seen, ngroups, "condensation must be acyclic");
        layer
    }
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
        let (group, ngroups, _) = g.condense();
        assert_eq!(ngroups, 2);
        assert_eq!(group[a], group[b]);
        assert_eq!(group[b], group[c]);
        assert_ne!(group[a], group[d]);
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
        let (group, ngroups, _) = g.condense();
        assert_eq!(ngroups, 4);
        assert_ne!(group[left], group[right]);
        let layers = g.layers();
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
