//! Program Execution Tree (dissertation §2.3.6, Fig. 2.6).
//!
//! The PET summarizes one execution as a tree of function and loop nodes
//! connected by "calling" and "containing" edges. Repeated instances of the
//! same static construct under the same parent are merged, accumulating
//! entry counts, iteration counts, and dynamic instruction counts — the
//! metrics the ranking method (§4.3) and pattern detection consume.

use fxhash::FxHashMap;
use interp::Event;
use mir::RegionKind;

/// What a PET node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PetNodeKind {
    /// The virtual root (program entry).
    Root,
    /// A function, by module function index.
    Function(u32),
    /// A loop region `(function, region)`.
    Loop(u32, u32),
}

/// A node of the PET.
#[derive(Debug, Clone)]
pub struct PetNode {
    /// Node kind.
    pub kind: PetNodeKind,
    /// Child node indices ("calling" edges to functions, "containing" edges
    /// to loops).
    pub children: Vec<usize>,
    /// Times this construct was entered under this parent.
    pub entries: u64,
    /// Total loop iterations executed (loops only).
    pub iters: u64,
    /// Total dynamic instructions executed inside (inclusive).
    pub dyn_instrs: u64,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
}

/// The finished tree.
#[derive(Debug, Clone)]
pub struct Pet {
    /// All nodes; index 0 is the root.
    pub nodes: Vec<PetNode>,
}

impl Pet {
    /// The root node index.
    pub fn root(&self) -> usize {
        0
    }

    /// Total dynamic instructions of the program (root-inclusive).
    pub fn total_instrs(&self) -> u64 {
        self.nodes[0].dyn_instrs
    }

    /// Find the (first) node for a static loop.
    pub fn loop_node(&self, func: u32, region: u32) -> Option<&PetNode> {
        self.nodes
            .iter()
            .find(|n| n.kind == PetNodeKind::Loop(func, region))
    }

    /// All loop nodes, aggregated by static loop across parents:
    /// `(func, region) -> (entries, iters, dyn_instrs)`. Keyed with the
    /// in-repo [`fxhash`] (lookup-only; no iteration-order dependence).
    pub fn loops_aggregated(&self) -> FxHashMap<(u32, u32), (u64, u64, u64)> {
        let mut m: FxHashMap<(u32, u32), (u64, u64, u64)> = FxHashMap::default();
        for n in &self.nodes {
            if let PetNodeKind::Loop(f, r) = n.kind {
                let e = m.entry((f, r)).or_default();
                e.0 += n.entries;
                e.1 += n.iters;
                e.2 += n.dyn_instrs;
            }
        }
        m
    }

    /// Nodes sorted by inclusive dynamic instruction count, hottest first.
    pub fn hotspots(&self) -> Vec<&PetNode> {
        let mut v: Vec<&PetNode> = self.nodes.iter().skip(1).collect();
        v.sort_by_key(|n| std::cmp::Reverse(n.dyn_instrs));
        v
    }

    /// Render as an indented tree for humans.
    pub fn render(&self, func_name: &dyn Fn(u32) -> String) -> String {
        let mut out = String::new();
        self.render_node(0, 0, func_name, &mut out);
        out
    }

    fn render_node(
        &self,
        idx: usize,
        depth: usize,
        func_name: &dyn Fn(u32) -> String,
        out: &mut String,
    ) {
        let n = &self.nodes[idx];
        let label = match n.kind {
            PetNodeKind::Root => "<root>".to_string(),
            PetNodeKind::Function(f) => format!("fn {}()", func_name(f)),
            PetNodeKind::Loop(_, _) => {
                format!("loop {}..{}", n.start_line, n.end_line)
            }
        };
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{label} [entries={}, iters={}, instrs={}]\n",
            n.entries, n.iters, n.dyn_instrs
        ));
        for &c in &n.children {
            self.render_node(c, depth + 1, func_name, out);
        }
    }
}

/// Incremental PET construction from the event stream.
#[derive(Debug)]
pub struct PetBuilder {
    nodes: Vec<PetNode>,
    /// Per-thread stack of active node indices.
    stacks: FxHashMap<u32, Vec<usize>>,
    /// `(parent, kind) -> node` for instance merging.
    index: FxHashMap<(usize, PetNodeKind), usize>,
}

impl Default for PetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PetBuilder {
    /// An empty builder with just the root.
    pub fn new() -> Self {
        PetBuilder {
            nodes: vec![PetNode {
                kind: PetNodeKind::Root,
                children: Vec::new(),
                entries: 1,
                iters: 0,
                dyn_instrs: 0,
                start_line: 0,
                end_line: 0,
            }],
            stacks: FxHashMap::default(),
            index: FxHashMap::default(),
        }
    }

    fn child(&mut self, parent: usize, kind: PetNodeKind, start: u32, end: u32) -> usize {
        if let Some(&n) = self.index.get(&(parent, kind)) {
            return n;
        }
        let n = self.nodes.len();
        self.nodes.push(PetNode {
            kind,
            children: Vec::new(),
            entries: 0,
            iters: 0,
            dyn_instrs: 0,
            start_line: start,
            end_line: end,
        });
        self.nodes[parent].children.push(n);
        self.index.insert((parent, kind), n);
        n
    }

    fn top(&mut self, thread: u32) -> usize {
        self.stacks
            .get(&thread)
            .and_then(|s| s.last().copied())
            .unwrap_or(0)
    }

    /// Feed one event.
    pub fn handle(&mut self, ev: &Event) {
        match ev {
            Event::FuncEnter { func, line, thread } => {
                let parent = self.top(*thread);
                let n = self.child(parent, PetNodeKind::Function(*func), *line, *line);
                self.nodes[n].entries += 1;
                self.stacks.entry(*thread).or_default().push(n);
            }
            Event::FuncExit { func, line, thread } => {
                if let Some(stack) = self.stacks.get_mut(thread) {
                    if let Some(n) = stack.pop() {
                        debug_assert_eq!(self.nodes[n].kind, PetNodeKind::Function(*func));
                        self.nodes[n].end_line = (*line).max(self.nodes[n].end_line);
                    }
                }
            }
            Event::RegionEnter {
                func,
                region,
                kind: RegionKind::Loop,
                start_line,
                end_line,
                thread,
            } => {
                let parent = self.top(*thread);
                let n = self.child(
                    parent,
                    PetNodeKind::Loop(*func, *region),
                    *start_line,
                    *end_line,
                );
                self.nodes[n].entries += 1;
                self.stacks.entry(*thread).or_default().push(n);
            }
            Event::RegionExit(x) if x.kind == RegionKind::Loop => {
                if let Some(stack) = self.stacks.get_mut(&x.thread) {
                    if let Some(n) = stack.pop() {
                        self.nodes[n].iters += x.iters;
                        self.nodes[n].dyn_instrs += x.dyn_instrs;
                    }
                }
            }
            _ => {}
        }
    }

    /// Finish: roll loop instruction counts up into ancestors and return the
    /// tree. Function nodes get inclusive counts from `func_instrs`
    /// accounting (loops report theirs via exit events; functions inherit
    /// the sum of their children plus their own loop-free work is not
    /// separately metered — the root total is supplied by the caller).
    pub fn finish(mut self, total_instrs: u64) -> Pet {
        // Propagate inclusive instruction counts bottom-up for functions:
        // a function's count is at least the sum of its children.
        fn rollup(nodes: &mut Vec<PetNode>, idx: usize) -> u64 {
            let children = nodes[idx].children.clone();
            let mut sum = 0;
            for c in children {
                sum += rollup(nodes, c);
            }
            if nodes[idx].dyn_instrs < sum {
                nodes[idx].dyn_instrs = sum;
            }
            nodes[idx].dyn_instrs
        }
        rollup(&mut self.nodes, 0);
        if self.nodes[0].dyn_instrs < total_instrs {
            self.nodes[0].dyn_instrs = total_instrs;
        }
        Pet { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func_enter(f: u32, t: u32) -> Event {
        Event::FuncEnter {
            func: f,
            line: 1,
            thread: t,
        }
    }
    fn func_exit(f: u32, t: u32) -> Event {
        Event::FuncExit {
            func: f,
            line: 9,
            thread: t,
        }
    }

    #[test]
    fn merges_repeated_calls() {
        let mut b = PetBuilder::new();
        b.handle(&func_enter(0, 0));
        for _ in 0..3 {
            b.handle(&func_enter(1, 0));
            b.handle(&func_exit(1, 0));
        }
        b.handle(&func_exit(0, 0));
        let pet = b.finish(100);
        // Root -> main -> callee (merged).
        assert_eq!(pet.nodes.len(), 3);
        let callee = pet
            .nodes
            .iter()
            .find(|n| n.kind == PetNodeKind::Function(1))
            .unwrap();
        assert_eq!(callee.entries, 3);
        assert_eq!(pet.total_instrs(), 100);
    }

    #[test]
    fn loop_node_accumulates_iterations() {
        let mut b = PetBuilder::new();
        b.handle(&func_enter(0, 0));
        for _ in 0..2 {
            b.handle(&Event::RegionEnter {
                func: 0,
                region: 1,
                kind: RegionKind::Loop,
                start_line: 3,
                end_line: 6,
                thread: 0,
            });
            b.handle(&Event::RegionExit(interp::RegionExitEvent {
                func: 0,
                region: 1,
                kind: RegionKind::Loop,
                start_line: 3,
                end_line: 6,
                iters: 10,
                dyn_instrs: 50,
                thread: 0,
            }));
        }
        b.handle(&func_exit(0, 0));
        let pet = b.finish(200);
        let l = pet.loop_node(0, 1).unwrap();
        assert_eq!(l.entries, 2);
        assert_eq!(l.iters, 20);
        assert_eq!(l.dyn_instrs, 100);
        let agg = pet.loops_aggregated();
        assert_eq!(agg[&(0, 1)], (2, 20, 100));
    }

    #[test]
    fn rollup_gives_function_at_least_children_sum() {
        let mut b = PetBuilder::new();
        b.handle(&func_enter(0, 0));
        b.handle(&Event::RegionEnter {
            func: 0,
            region: 1,
            kind: RegionKind::Loop,
            start_line: 2,
            end_line: 4,
            thread: 0,
        });
        b.handle(&Event::RegionExit(interp::RegionExitEvent {
            func: 0,
            region: 1,
            kind: RegionKind::Loop,
            start_line: 2,
            end_line: 4,
            iters: 5,
            dyn_instrs: 42,
            thread: 0,
        }));
        b.handle(&func_exit(0, 0));
        let pet = b.finish(0);
        let main = pet
            .nodes
            .iter()
            .find(|n| n.kind == PetNodeKind::Function(0))
            .unwrap();
        assert!(main.dyn_instrs >= 42);
    }

    #[test]
    fn hotspots_sorted_descending() {
        let mut b = PetBuilder::new();
        b.handle(&func_enter(0, 0));
        for (region, cost) in [(1u32, 10u64), (2, 99)] {
            b.handle(&Event::RegionEnter {
                func: 0,
                region,
                kind: RegionKind::Loop,
                start_line: region,
                end_line: region,
                thread: 0,
            });
            b.handle(&Event::RegionExit(interp::RegionExitEvent {
                func: 0,
                region,
                kind: RegionKind::Loop,
                start_line: region,
                end_line: region,
                iters: 1,
                dyn_instrs: cost,
                thread: 0,
            }));
        }
        b.handle(&func_exit(0, 0));
        let pet = b.finish(200);
        let hs = pet.hotspots();
        assert!(hs[0].dyn_instrs >= hs[1].dyn_instrs);
    }
}
