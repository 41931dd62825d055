//! PARSEC stand-ins (Table 4.7) and splash2x-style multi-threaded
//! programs used for communication-pattern detection (Fig. 5.1).

use crate::meta::{LoopTruth, Suite, Workload};

/// All PARSEC/splash2x stand-ins.
pub fn suite() -> Vec<Workload> {
    vec![
        BLACKSCHOLES,
        SWAPTIONS,
        DEDUP,
        FERRET,
        BARNES_PAR,
        RADIX_PAR,
        OCEAN_PAR,
    ]
}

/// blackscholes: per-option pricing — the canonical PARSEC DOALL.
pub const BLACKSCHOLES: Workload = Workload {
    name: "blackscholes",
    suite: Suite::Parsec,
    parallel_target: false,
    source: r#"global float spot[128];
global float strike[128];
global float price[128];
fn main() {
    srand(20);
    for (int i0 = 0; i0 < 128; i0 = i0 + 1) {
        spot[i0] = 80.0 + (rand() % 400) * 0.1;
        strike[i0] = 90.0 + (rand() % 200) * 0.1;
    }
    for (int i = 0; i < 128; i = i + 1) {
        float s = spot[i];
        float k = strike[i];
        float d1 = (log(s / k) + 0.045) / 0.3;
        float nd1 = 1.0 / (1.0 + exp(0.0 - d1 * 1.702));
        price[i] = s * nd1 - k * 0.95 * (1.0 - nd1);
    }
    print(price[0], price[127]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 128",
            parallel: true,
            reduction: false,
            note: "input fill",
        },
        LoopTruth {
            marker: "i < 128",
            parallel: true,
            reduction: false,
            note: "per-option pricing (the hot loop of blackscholes)",
        },
    ],
};

/// swaptions: per-swaption Monte-Carlo with an inner path reduction.
pub const SWAPTIONS: Workload = Workload {
    name: "swaptions",
    suite: Suite::Parsec,
    parallel_target: false,
    source: r#"global float result[16];
fn main() {
    srand(808);
    for (int s = 0; s < 16; s = s + 1) {
        float acc = 0.0;
        for (int path = 0; path < 32; path = path + 1) {
            float r = frand() * 0.1 + 0.01;
            acc += exp(0.0 - r * (s + 1)) * 100.0;
        }
        result[s] = acc / 32.0;
    }
    print(result[0], result[15]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "s < 16",
            parallel: true,
            reduction: false,
            note: "independent swaptions",
        },
        LoopTruth {
            marker: "path < 32",
            parallel: true,
            reduction: true,
            note: "Monte-Carlo path reduction",
        },
    ],
};

/// dedup: chunk → hash → compress pipeline; hashing/compression per chunk
/// is independent, the chunk boundary scan is a recurrence.
pub const DEDUP: Workload = Workload {
    name: "dedup",
    suite: Suite::Parsec,
    parallel_target: false,
    source: r#"global int data[512];
global int boundary[16];
global int hashv[16];
fn main() {
    srand(11);
    for (int i0 = 0; i0 < 512; i0 = i0 + 1) {
        data[i0] = rand() % 256;
    }
    int nb = 0;
    int roll = 0;
    for (int i = 0; i < 512; i = i + 1) {
        roll = (roll * 31 + data[i]) % 4096;
        if (roll % 64 == 7) {
            if (nb < 15) {
                nb = nb + 1;
                boundary[nb] = i;
            }
        }
    }
    boundary[0] = 0;
    for (int c = 0; c < 15; c = c + 1) {
        int h = 17;
        for (int k = boundary[c]; k < boundary[c + 1]; k = k + 1) {
            h = (h * 33 + data[k]) % 65536;
        }
        hashv[c] = h;
    }
    print(hashv[0], nb);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i < 512",
            parallel: false,
            reduction: false,
            note: "rolling-hash chunk boundary scan (recurrence)",
        },
        LoopTruth {
            marker: "c < 15",
            parallel: true,
            reduction: false,
            note: "per-chunk hashing (pipeline stage 2)",
        },
    ],
};

/// ferret: similarity-search pipeline: per-query feature extraction and
/// ranking are independent across queries.
pub const FERRET: Workload = Workload {
    name: "ferret",
    suite: Suite::Parsec,
    parallel_target: false,
    source: r#"global float db[256];
global float queries[64];
global int best[8];
fn main() {
    srand(91);
    for (int i0 = 0; i0 < 256; i0 = i0 + 1) {
        db[i0] = (rand() % 100) * 0.01;
    }
    for (int q0 = 0; q0 < 64; q0 = q0 + 1) {
        queries[q0] = (rand() % 100) * 0.01;
    }
    for (int q = 0; q < 8; q = q + 1) {
        float bestd = 99.0;
        int bestn = 0;
        for (int n = 0; n < 32; n = n + 1) {
            float d = 0.0;
            for (int f = 0; f < 8; f = f + 1) {
                float diff = queries[q * 8 + f] - db[n * 8 + f];
                d += diff * diff;
            }
            if (d < bestd) {
                bestd = d;
                bestn = n;
            }
        }
        best[q] = bestn;
    }
    print(best[0], best[7]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "q < 8",
            parallel: true,
            reduction: false,
            note: "independent queries (the pipeline of ferret)",
        },
        LoopTruth {
            marker: "n < 32",
            parallel: false,
            reduction: false,
            note: "running-min over candidates",
        },
        LoopTruth {
            marker: "f < 8",
            parallel: true,
            reduction: true,
            note: "distance reduction",
        },
    ],
};

// ---- splash2x-style multi-threaded programs (Fig. 5.1 comm patterns) ----

/// barnes-like: all threads update a shared tree root under one lock —
/// all-to-all communication through the shared cells.
pub const BARNES_PAR: Workload = Workload {
    name: "barnes-par",
    suite: Suite::Parsec,
    parallel_target: true,
    source: r#"global float cells[64];
global float com;
fn body(int t) {
    for (int i = 0; i < 16; i = i + 1) {
        int c = (t * 16 + i * 7) % 64;
        lock(1);
        cells[c] += 0.25;
        com += cells[c] * 0.01;
        unlock(1);
    }
}
fn main() {
    int t0 = spawn(body, 0);
    int t1 = spawn(body, 1);
    int t2 = spawn(body, 2);
    int t3 = spawn(body, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    print(com);
}
"#,
    truths: &[],
};

/// radix-like: threads write private buckets, then thread 0 combines —
/// gather/all-to-one communication.
pub const RADIX_PAR: Workload = Workload {
    name: "radix-par",
    suite: Suite::Parsec,
    parallel_target: true,
    source: r#"global int buckets[64];
global int total;
fn count(int t) {
    for (int i = 0; i < 16; i = i + 1) {
        buckets[t * 16 + i] = (t * 31 + i * 7) % 100;
    }
}
fn main() {
    int t0 = spawn(count, 0);
    int t1 = spawn(count, 1);
    int t2 = spawn(count, 2);
    int t3 = spawn(count, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    total = 0;
    for (int i = 0; i < 64; i = i + 1) {
        total += buckets[i];
    }
    print(total);
}
"#,
    truths: &[],
};

/// ocean-like: neighbouring threads exchange halo rows — nearest-neighbour
/// communication.
pub const OCEAN_PAR: Workload = Workload {
    name: "ocean-par",
    suite: Suite::Parsec,
    parallel_target: true,
    source: r#"global float grid[128];
fn relax(int t) {
    int base = t * 32;
    for (int it = 0; it < 3; it = it + 1) {
        for (int i = 1; i < 31; i = i + 1) {
            lock(t);
            grid[base + i] = 0.5 * grid[base + i] + 0.25 * (grid[base + i - 1] + grid[base + i + 1]);
            unlock(t);
        }
    }
}
fn main() {
    for (int i0 = 0; i0 < 128; i0 = i0 + 1) {
        grid[i0] = (i0 % 11) * 0.1;
    }
    int t0 = spawn(relax, 0);
    int t1 = spawn(relax, 1);
    int t2 = spawn(relax, 2);
    int t3 = spawn(relax, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    print(grid[64]);
}
"#,
    truths: &[],
};

#[cfg(test)]
mod tests {
    use super::*;
    use discovery::LoopClass;

    /// Each target thread's accesses delivered as real threads would.
    fn racy() -> profiler::ProfileConfig {
        profiler::ProfileConfig {
            run: interp::RunConfig {
                racy_delivery: true,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn blackscholes_pricing_is_doall() {
        let p = BLACKSCHOLES.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let line = BLACKSCHOLES.line_of("i < 128").unwrap();
        let l = d.loops.iter().find(|l| l.info.start_line == line).unwrap();
        assert_eq!(l.class, LoopClass::Doall, "{l:?}");
    }

    #[test]
    fn splash_programs_profile_with_cross_thread_deps() {
        for w in [&BARNES_PAR, &RADIX_PAR] {
            let p = w.program().unwrap();
            let out = profiler::profile_program_with(&p, &racy()).unwrap();
            let cross = out
                .deps
                .sorted()
                .iter()
                .filter(|d| d.is_cross_thread())
                .count();
            assert!(cross > 0, "{} must show cross-thread communication", w.name);
        }
    }
}
