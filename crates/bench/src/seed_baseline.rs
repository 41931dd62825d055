//! The seed profiler hot path, preserved for benchmarking.
//!
//! This is a faithful reconstruction of the serial perfect-shadow engine as
//! it existed before the shadow-memory overhaul: `HashMap<u64, Cell>` shadow
//! memory and a SipHash-keyed dependence store, a `HashMap`-backed loop
//! context probed per event, the path-materializing (allocating) carried-by
//! walk, and strictly per-event sink delivery. The equivalence tests
//! assert it and the current engine produce identical dependences.
//!
//! Deliberately *not* kept in sync with profiler-internal optimizations —
//! its whole value is staying slow the old way.

use interp::{Event, MemEvent, Sink};
use profiler::{Access, Dep, DepSet, DepType, PetBuilder, SrcLoc, NO_INSTANCE};
use std::collections::HashMap;

/// The seed's seven-field shadow cell: line and variable stored per address.
/// Deliberately not `profiler::Cell` — an oracle must not share the
/// representation under test. `op` and `var` are never read back; they stay
/// so the seed's per-address footprint (and so its timing) is the seed's.
#[derive(Debug, Clone, Copy)]
struct Cell {
    #[allow(dead_code)]
    op: u32,
    line: u32,
    #[allow(dead_code)]
    var: u32,
    thread: u32,
    ts: u64,
    instance: u32,
    iter: u32,
}

impl Cell {
    fn from_access(a: &Access) -> Self {
        Cell {
            op: a.op,
            line: a.line,
            var: a.var,
            thread: a.thread,
            ts: a.ts,
            instance: a.instance,
            iter: a.iter,
        }
    }
}

/// One dynamic loop instance (seed layout).
#[derive(Debug, Clone, Copy)]
struct Instance {
    loop_key: (u32, u32),
    parent: u32,
    iter_in_parent: u32,
}

/// The seed serial profiler over perfect `HashMap` shadow maps.
#[derive(Default)]
pub struct SeedProfiler {
    pet: PetBuilder,
    read_map: HashMap<u64, Cell>,
    write_map: HashMap<u64, Cell>,
    /// SipHash-keyed merged store, as in the seed.
    deps: HashMap<Dep, u64>,
    total_found: u64,
    instances: Vec<Instance>,
    stacks: HashMap<u32, Vec<(u32, u32)>>,
    lifetime: bool,
}

impl SeedProfiler {
    /// A seed profiler with lifetime analysis on (the seed default).
    pub fn new() -> Self {
        SeedProfiler {
            lifetime: true,
            ..Default::default()
        }
    }

    /// The merged dependences, converted to the current [`DepSet`] type so
    /// callers can compare against the new engine's output. Not part of the
    /// profiling hot path — benchmarks must run it *outside* the timed
    /// region (see [`run_seed`]). Per-dependence counts carry over, so a
    /// differential test can see a lost or doubled occurrence as well as a
    /// missing dependence.
    pub fn into_depset(self) -> DepSet {
        let mut out = DepSet::with_capacity(self.deps.len());
        for (d, n) in self.deps {
            out.insert_n(d, n);
        }
        debug_assert_eq!(out.total_found, self.total_found);
        out
    }

    fn current(&self, thread: u32) -> (u32, u32) {
        self.stacks
            .get(&thread)
            .and_then(|s| s.last().copied())
            .unwrap_or((NO_INSTANCE, 0))
    }

    /// The seed's path-materializing carried-by analysis (allocates two
    /// `Vec`s whenever the contexts differ).
    fn carried_by(&self, ai: u32, au: u32, bi: u32, bu: u32) -> Option<(u32, u32)> {
        let path = |mut instance: u32, mut iter: u32| {
            let mut p = Vec::new();
            while instance != NO_INSTANCE {
                p.push((instance, iter));
                let info = &self.instances[instance as usize];
                iter = info.iter_in_parent;
                instance = info.parent;
            }
            p
        };
        if ai == bi {
            if ai == NO_INSTANCE || au == bu {
                return None;
            }
            return Some(self.instances[ai as usize].loop_key);
        }
        let pa = path(ai, au);
        let pb = path(bi, bu);
        for &(ia, it_a) in &pa {
            if let Some(&(_, it_b)) = pb.iter().find(|(ib, _)| *ib == ia) {
                if it_a != it_b {
                    return Some(self.instances[ia as usize].loop_key);
                }
                return None;
            }
        }
        None
    }

    fn record(&mut self, ty: DepType, sink: &Access, source: &Cell) {
        let carried_by = self.carried_by(sink.instance, sink.iter, source.instance, source.iter);
        let race_hint = sink.ts < source.ts;
        self.insert(Dep {
            sink: SrcLoc::new(sink.line),
            ty,
            source: SrcLoc::new(source.line),
            var: sink.var,
            sink_thread: sink.thread,
            source_thread: source.thread,
            carried_by,
            race_hint,
        });
    }

    fn insert(&mut self, dep: Dep) {
        self.total_found += 1;
        *self.deps.entry(dep).or_insert(0) += 1;
    }

    /// Algorithm 2 over the `HashMap` shadow (seed `DepBuilder::build`).
    fn process(&mut self, a: &Access) {
        let status_read = self.read_map.get(&a.addr).copied();
        let status_write = self.write_map.get(&a.addr).copied();
        let cell = Cell::from_access(a);
        if a.is_write {
            match status_write {
                None => {
                    self.insert(Dep {
                        sink: SrcLoc::new(a.line),
                        ty: DepType::Init,
                        source: SrcLoc::new(a.line),
                        var: u32::MAX,
                        sink_thread: a.thread,
                        source_thread: a.thread,
                        carried_by: None,
                        race_hint: false,
                    });
                }
                Some(w) => match status_read {
                    Some(r) if r.ts > w.ts => self.record(DepType::War, a, &r),
                    _ => self.record(DepType::Waw, a, &w),
                },
            }
            self.write_map.insert(a.addr, cell);
        } else {
            if let Some(w) = status_write {
                self.record(DepType::Raw, a, &w);
            }
            self.read_map.insert(a.addr, cell);
        }
    }

    fn annotate(&self, m: &MemEvent) -> Access {
        let (instance, iter) = self.current(m.thread);
        Access {
            addr: m.addr,
            op: m.op,
            line: m.line,
            var: m.var,
            thread: m.thread,
            ts: m.ts,
            is_write: m.is_write,
            instance,
            iter,
        }
    }
}

impl Sink for SeedProfiler {
    fn event(&mut self, ev: &Event) {
        self.pet.handle(ev);
        match ev {
            Event::Mem(m) => {
                let a = self.annotate(m);
                self.process(&a);
            }
            Event::RegionEnter {
                func,
                region,
                kind: mir::RegionKind::Loop,
                thread,
                ..
            } => {
                let (parent, parent_iter) = self.current(*thread);
                let id = self.instances.len() as u32;
                self.instances.push(Instance {
                    loop_key: (*func, *region),
                    parent,
                    iter_in_parent: parent_iter,
                });
                self.stacks.entry(*thread).or_default().push((id, 0));
            }
            Event::LoopIter { thread, .. } => {
                if let Some(top) = self.stacks.entry(*thread).or_default().last_mut() {
                    top.1 += 1;
                }
            }
            Event::RegionExit(x) if x.kind == mir::RegionKind::Loop => {
                self.stacks.entry(x.thread).or_default().pop();
            }
            Event::ThreadEnd { thread } => {
                self.stacks.remove(thread);
            }
            Event::VarDealloc { addr, words, .. } if self.lifetime => {
                for w in 0..*words {
                    self.read_map.remove(&(*addr + w * 8));
                    self.write_map.remove(&(*addr + w * 8));
                }
            }
            _ => {}
        }
    }

    /// The seed had no batched delivery: force the per-event path.
    fn batch_hint(&self) -> bool {
        false
    }
}

/// Run `prog` under the seed engine and return the profiler itself — the
/// timeable unit for benchmarks (conversion to [`DepSet`] excluded).
pub fn run_seed(prog: &interp::Program) -> Result<SeedProfiler, interp::RuntimeError> {
    let mut p = SeedProfiler::new();
    interp::run_with_config(prog, &mut p, interp::RunConfig::default())?;
    Ok(p)
}

/// Profile `prog` with the seed engine; returns the merged dependences.
pub fn profile_seed(prog: &interp::Program) -> Result<DepSet, interp::RuntimeError> {
    Ok(run_seed(prog)?.into_depset())
}
