//! The textbook programs of Table 4.2, as mini-C kernels for discovery.

use crate::meta::{LoopTruth, Suite, Workload};

/// All textbook programs.
pub fn suite() -> Vec<Workload> {
    vec![MANDELBROT, MATMUL, PI, NBODY, PRIMES, DOTPROD]
}

/// mandelbrot: per-pixel escape iteration.
pub const MANDELBROT: Workload = Workload {
    name: "mandelbrot",
    suite: Suite::Textbook,
    parallel_target: false,
    source: r#"global int img[256];
fn main() {
    for (int y = 0; y < 16; y = y + 1) {
        for (int x = 0; x < 16; x = x + 1) {
            float cr = x * 0.15 - 2.0;
            float ci = y * 0.15 - 1.2;
            float zr = 0.0;
            float zi = 0.0;
            int n = 0;
            while (n < 32) {
                float zr2 = zr * zr - zi * zi + cr;
                zi = 2.0 * zr * zi + ci;
                zr = zr2;
                if (zr * zr + zi * zi > 4.0) {
                    break;
                }
                n = n + 1;
            }
            img[y * 16 + x] = n;
        }
    }
    print(img[0], img[255]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "y < 16",
            parallel: true,
            reduction: false,
            note: "pixel rows",
        },
        LoopTruth {
            marker: "x < 16",
            parallel: true,
            reduction: false,
            note: "pixels",
        },
        LoopTruth {
            marker: "n < 32",
            parallel: false,
            reduction: false,
            note: "escape iteration recurrence",
        },
    ],
};

/// matmul: classic triple loop.
pub const MATMUL: Workload = Workload {
    name: "matmul",
    suite: Suite::Textbook,
    parallel_target: false,
    source: r#"global float A[256];
global float B[256];
global float C[256];
fn main() {
    for (int i0 = 0; i0 < 256; i0 = i0 + 1) {
        A[i0] = (i0 % 16) * 0.25;
        B[i0] = (i0 % 8) * 0.5;
    }
    for (int i = 0; i < 16; i = i + 1) {
        for (int j = 0; j < 16; j = j + 1) {
            float s = 0.0;
            for (int k = 0; k < 16; k = k + 1) {
                s += A[i * 16 + k] * B[k * 16 + j];
            }
            C[i * 16 + j] = s;
        }
    }
    print(C[0], C[255]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i < 16",
            parallel: true,
            reduction: false,
            note: "output rows",
        },
        LoopTruth {
            marker: "j < 16",
            parallel: true,
            reduction: false,
            note: "output columns",
        },
        LoopTruth {
            marker: "k < 16",
            parallel: true,
            reduction: true,
            note: "dot-product reduction",
        },
    ],
};

/// pi: midpoint-rule integration — a pure reduction.
pub const PI: Workload = Workload {
    name: "pi",
    suite: Suite::Textbook,
    parallel_target: false,
    source: r#"global float pi;
fn main() {
    pi = 0.0;
    for (int i = 0; i < 2048; i = i + 1) {
        float x = (i + 0.5) * 0.00048828125;
        pi += 4.0 / (1.0 + x * x);
    }
    pi = pi * 0.00048828125;
    print(pi);
}
"#,
    truths: &[LoopTruth {
        marker: "i < 2048",
        parallel: true,
        reduction: true,
        note: "integration reduction",
    }],
};

/// nbody: force accumulation (per-body DOALL with inner reduction) and an
/// integration step.
pub const NBODY: Workload = Workload {
    name: "nbody",
    suite: Suite::Textbook,
    parallel_target: false,
    source: r#"global float posx[32];
global float velx[32];
global float frc[32];
fn main() {
    for (int i0 = 0; i0 < 32; i0 = i0 + 1) {
        posx[i0] = i0 * 0.3;
    }
    for (int step = 0; step < 3; step = step + 1) {
        for (int i = 0; i < 32; i = i + 1) {
            float f = 0.0;
            for (int j = 0; j < 32; j = j + 1) {
                if (j != i) {
                    float d = posx[j] - posx[i];
                    f += d / (d * d + 0.01);
                }
            }
            frc[i] = f;
        }
        for (int u = 0; u < 32; u = u + 1) {
            velx[u] += frc[u] * 0.01;
            posx[u] += velx[u] * 0.01;
        }
    }
    print(posx[0]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "step < 3",
            parallel: false,
            reduction: false,
            note: "time steps",
        },
        LoopTruth {
            marker: "i < 32",
            parallel: true,
            reduction: false,
            note: "per-body force (the hot loop)",
        },
        LoopTruth {
            marker: "j < 32",
            parallel: true,
            reduction: true,
            note: "force reduction",
        },
        LoopTruth {
            marker: "u < 32",
            parallel: true,
            reduction: false,
            note: "integration update",
        },
    ],
};

/// primes: trial-division count — DOALL with a count reduction.
pub const PRIMES: Workload = Workload {
    name: "primes",
    suite: Suite::Textbook,
    parallel_target: false,
    source: r#"global int nprimes;
fn is_prime(int n) -> int {
    if (n < 2) {
        return 0;
    }
    for (int d = 2; d * d <= n; d = d + 1) {
        if (n % d == 0) {
            return 0;
        }
    }
    return 1;
}
fn main() {
    nprimes = 0;
    for (int n = 2; n < 400; n = n + 1) {
        nprimes += is_prime(n);
    }
    print(nprimes);
}
"#,
    truths: &[LoopTruth {
        marker: "n = 2; n < 400",
        parallel: true,
        reduction: true,
        note: "candidate loop with count reduction",
    }],
};

/// dotprod: the simplest reduction.
pub const DOTPROD: Workload = Workload {
    name: "dotprod",
    suite: Suite::Textbook,
    parallel_target: false,
    source: r#"global float xs[512];
global float ys[512];
global float dot;
fn main() {
    for (int i0 = 0; i0 < 512; i0 = i0 + 1) {
        xs[i0] = (i0 % 10) * 0.1;
        ys[i0] = (i0 % 7) * 0.2;
    }
    dot = 0.0;
    for (int i = 0; i < 512; i = i + 1) {
        dot += xs[i] * ys[i];
    }
    print(dot);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 512",
            parallel: true,
            reduction: false,
            note: "fill",
        },
        LoopTruth {
            marker: "i < 512",
            parallel: true,
            reduction: true,
            note: "dot-product reduction",
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_counts_correctly() {
        let p = PRIMES.program().unwrap();
        let r = interp::run(&p, interp::NullSink).unwrap();
        assert_eq!(r.printed[0], "78", "78 primes below 400");
    }

    #[test]
    fn mandelbrot_interior_hits_limit() {
        let p = MANDELBROT.program().unwrap();
        let r = interp::run(&p, interp::NullSink).unwrap();
        // At least one pixel escapes immediately and the set interior
        // reaches the iteration cap.
        let parts: Vec<i64> = r.printed[0]
            .split(' ')
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(parts.iter().any(|&v| v <= 2));
    }

    #[test]
    fn pi_approximates() {
        let p = PI.program().unwrap();
        let r = interp::run(&p, interp::NullSink).unwrap();
        let v: f64 = r.printed[0].parse().unwrap();
        assert!((v - std::f64::consts::PI).abs() < 1e-3, "pi ≈ {v}");
    }
}
