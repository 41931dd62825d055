//! One pass, as a count: `Report::to_json_string` allocates the output
//! buffer, one sorted copy of the dependences and a handful of fixed-size
//! pieces — nothing per row, and nothing per folded row or thread run.
//! Counted with a counting global allocator (this file is its own test
//! binary), so the numbers repeat exactly.

mod common;

use discopop::{Analysis, EngineKind, Report};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(fresh allocations, reallocations)` made by this thread.
    static COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells with a
// const initialiser, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTS.try_with(|c| c.set((c.get().0 + 1, c.get().1)));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTS.try_with(|c| c.set((c.get().0, c.get().1 + 1)));
        // SAFETY: as for `dealloc`, with the caller's size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(fresh allocations, reallocations, output bytes)` of one rendering.
fn render_cost(program: &interp::Program, report: &Report) -> (usize, usize, usize) {
    let before = COUNTS.with(Cell::get);
    let json = report.to_json_string(program);
    let after = COUNTS.with(Cell::get);
    (after.0 - before.0, after.1 - before.1, json.len())
}

fn wide(functions: usize) -> (interp::Program, Report) {
    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis
        .compile(&common::wide_program(functions), "wide")
        .unwrap();
    let report = analysis
        .engine_mut(EngineKind::auto_for(compiled.program()))
        .analyze_compiled(&compiled)
        .unwrap();
    (compiled.program, report)
}

#[test]
fn rendering_allocates_for_the_output_not_for_the_rows() {
    let program = workloads::by_name("actors_10k").unwrap().program().unwrap();
    let report = Analysis::new()
        .engine(EngineKind::auto_for(&program))
        .analyze_program(&program)
        .unwrap();
    // Schema v8 folds the 50,042 dependences' thread pairs: 48 rows.
    assert_eq!(report.profile.deps.len(), 50_042);
    let (fresh, grown, bytes) = render_cost(&program, &report);
    assert!(bytes <= 100_000, "{bytes} bytes");
    assert!(
        fresh + grown <= 64,
        "actors_10k: {fresh} allocations + {grown} reallocations for {} dependences",
        report.profile.deps.len()
    );
    drop((program, report));

    // Twice the program: twice the rows — loops, dependences, and call
    // sites in the one sibling-call group — about twice the bytes, and the
    // same fresh allocations — only the output buffer (and the buffers
    // reused from row to row) grew, by reallocation.
    let (small_program, small) = wide(40);
    let (large_program, large) = wide(80);
    assert_eq!(large.discovery.loops.len(), 2 * small.discovery.loops.len());
    assert_eq!(large.profile.deps.len(), 2 * small.profile.deps.len());
    let sites =
        |r: &Report| -> Vec<usize> { r.discovery.spmd.iter().map(|s| s.lines.len()).collect() };
    assert_eq!((sites(&small), sites(&large)), (vec![40], vec![80]));
    let (small_fresh, small_grown, small_bytes) = render_cost(&small_program, &small);
    let (large_fresh, large_grown, large_bytes) = render_cost(&large_program, &large);
    assert!(large_bytes > 3 * small_bytes / 2 && large_bytes < 2 * small_bytes);
    assert_eq!(
        large_fresh, small_fresh,
        "fresh allocations must not depend on the number of rows"
    );
    assert!(
        small_fresh + small_grown <= 64 && large_fresh + large_grown <= 64,
        "wide_40: {small_fresh} + {small_grown}, wide_80: {large_fresh} + {large_grown}"
    );
    // Rendering twice costs the same twice: the count can gate.
    assert_eq!(
        render_cost(&large_program, &large),
        (large_fresh, large_grown, large_bytes)
    );
}
