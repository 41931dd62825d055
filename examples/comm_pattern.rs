//! Detect thread communication patterns of the splash2x-style programs
//! (§5.3 / Fig. 5.1), profiling through the facade's multithreaded path
//! (`Analysis::profile_threads`: the configured engine, with each target
//! thread's accesses delivered as real threads would deliver them).
//!
//! Run with: `cargo run --example comm_pattern`

use discopop::{Analysis, Compiled, EngineKind};

fn main() {
    let mut analysis = Analysis::new().engine(EngineKind::parallel(4));
    for name in ["barnes-par", "radix-par", "ocean-par"] {
        let w = workloads::by_name(name).expect("workload exists");
        let compiled = Compiled::new(w.program().expect("compiles"));
        let profiled = analysis.profile_threads(&compiled).expect("profiles");
        let threads = 5; // main + 4 workers
        let m = apps::comm_matrix(profiled.deps(), threads);
        println!("=== {name} ===");
        println!("{}", apps::render_matrix(&m));
    }
}
