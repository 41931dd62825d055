//! Fig. 2.9: serial vs lock-free parallel profiling, all settings of the one
//! engine selected through `EngineKind`. (The figure's lock-based column is
//! no longer an engine; `benches/queues.rs` keeps the queue comparison.)

use criterion::{criterion_group, criterion_main, Criterion};
use profiler::{EngineKind, ProfileConfig};

fn engines(c: &mut Criterion) {
    let w = workloads::by_name("MG").unwrap();
    let p = w.program().unwrap();
    let mut g = c.benchmark_group("profiler_engines");
    g.sample_size(10);
    g.bench_function("native", |b| {
        b.iter(|| interp::run(&p, interp::NullSink).unwrap())
    });
    for (name, engine) in [
        ("serial_signature", EngineKind::signature(1 << 18)),
        ("serial_perfect", EngineKind::SerialPerfect),
        ("lock_free_8t", EngineKind::parallel(8)),
        ("lock_free_16t", EngineKind::parallel(16)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                profiler::profile_program_with(
                    &p,
                    &ProfileConfig {
                        engine,
                        ..Default::default()
                    },
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, engines);
criterion_main!(benches);
