//! Starbench parallel benchmark suite stand-ins.
//!
//! Sequential versions reproduce the dependence structure of the originals
//! (per-pixel DOALL kernels, reduction phases, bitstream recurrences,
//! wavefront dependences). The `-par` variants are multi-threaded mini-C
//! programs in the style of the pthread versions, used for the Fig. 2.10 /
//! 2.11 experiments (profiling parallel targets) and the §2.3.4 race-hint
//! machinery.

use crate::meta::{LoopTruth, Suite, Workload};

/// All Starbench stand-ins (sequential + parallel variants).
pub fn suite() -> Vec<Workload> {
    vec![
        C_RAY,
        KMEANS,
        MD5,
        RAY_ROT,
        RGBYUV,
        ROTATE,
        ROT_CC,
        STREAMCLUSTER,
        TINYJPEG,
        BODYTRACK,
        H264DEC,
        C_RAY_PAR,
        KMEANS_PAR,
        MD5_PAR,
        ROTATE_PAR,
    ]
}

/// c-ray: per-pixel ray/sphere intersection. Fully DOALL over pixels.
pub const C_RAY: Workload = Workload {
    name: "c-ray",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float sx[8];
global float sy[8];
global float sr[8];
global float img[1024];
fn trace(int px, int py) -> float {
    float ox = px * 0.0625;
    float oy = py * 0.03125;
    float best = 1000.0;
    for (int s = 0; s < 8; s = s + 1) {
        float dx = ox - sx[s];
        float dy = oy - sy[s];
        float d2 = dx * dx + dy * dy;
        float r2 = sr[s] * sr[s];
        if (d2 < r2) {
            float depth = d2 / (r2 + 0.001);
            if (depth < best) {
                best = depth;
            }
        }
    }
    return best;
}
fn main() {
    for (int s0 = 0; s0 < 8; s0 = s0 + 1) {
        sx[s0] = s0 * 0.4;
        sy[s0] = s0 * 0.2 + 0.1;
        sr[s0] = 0.3 + (s0 % 3) * 0.2;
    }
    for (int y = 0; y < 32; y = y + 1) {
        for (int x = 0; x < 32; x = x + 1) {
            img[y * 32 + x] = trace(x, y);
        }
    }
    print(img[0], img[1023]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "s0 < 8",
            parallel: true,
            reduction: false,
            note: "scene setup",
        },
        LoopTruth {
            marker: "y < 32",
            parallel: true,
            reduction: false,
            note: "scanlines (the parallel loop of c-ray)",
        },
        LoopTruth {
            marker: "x < 32",
            parallel: true,
            reduction: false,
            note: "pixels within a scanline",
        },
    ],
};

/// kmeans: assignment is DOALL; the centroid update is a histogram-style
/// reduction; the outer convergence iteration is sequential.
pub const KMEANS: Workload = Workload {
    name: "kmeans",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float px[128];
global float py[128];
global int assign[128];
global float cx[4];
global float cy[4];
global float sumx[4];
global float sumy[4];
global int cnt[4];
fn main() {
    srand(5);
    for (int i0 = 0; i0 < 128; i0 = i0 + 1) {
        px[i0] = (rand() % 1000) * 0.001;
        py[i0] = (rand() % 1000) * 0.001;
    }
    for (int c0 = 0; c0 < 4; c0 = c0 + 1) {
        cx[c0] = c0 * 0.25;
        cy[c0] = 1.0 - c0 * 0.25;
    }
    for (int it = 0; it < 4; it = it + 1) {
        for (int i = 0; i < 128; i = i + 1) {
            float bestd = 100.0;
            int bestc = 0;
            for (int c = 0; c < 4; c = c + 1) {
                float dx = px[i] - cx[c];
                float dy = py[i] - cy[c];
                float d = dx * dx + dy * dy;
                if (d < bestd) {
                    bestd = d;
                    bestc = c;
                }
            }
            assign[i] = bestc;
        }
        for (int z = 0; z < 4; z = z + 1) {
            sumx[z] = 0.0;
            sumy[z] = 0.0;
            cnt[z] = 0;
        }
        for (int j = 0; j < 128; j = j + 1) {
            int a = assign[j];
            sumx[a] += px[j];
            sumy[a] += py[j];
            cnt[a] += 1;
        }
        for (int u = 0; u < 4; u = u + 1) {
            if (cnt[u] > 0) {
                cx[u] = sumx[u] / cnt[u];
                cy[u] = sumy[u] / cnt[u];
            }
        }
    }
    print(cx[0], cy[0]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "it < 4",
            parallel: false,
            reduction: false,
            note: "convergence iterations",
        },
        LoopTruth {
            marker: "i < 128",
            parallel: true,
            reduction: false,
            note: "point assignment (the hot loop of kmeans)",
        },
        LoopTruth {
            marker: "j < 128",
            parallel: true,
            reduction: true,
            note: "centroid accumulation (reduction)",
        },
        LoopTruth {
            marker: "u < 4",
            parallel: true,
            reduction: false,
            note: "centroid recomputation",
        },
    ],
};

/// md5: independent buffers hashed by a sequential per-buffer chain.
pub const MD5: Workload = Workload {
    name: "md5",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global int data[1024];
global int digest[16];
fn main() {
    srand(99);
    for (int i0 = 0; i0 < 1024; i0 = i0 + 1) {
        data[i0] = rand() % 256;
    }
    for (int b = 0; b < 16; b = b + 1) {
        int h = 1732584193;
        for (int i = 0; i < 64; i = i + 1) {
            int w = data[b * 64 + i];
            h = ((h << 3) ^ (h >> 5)) + w * 2654435761 + 12345;
            h = h & 1073741823;
        }
        digest[b] = h;
    }
    print(digest[0], digest[15]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 1024",
            parallel: true,
            reduction: false,
            note: "buffer fill",
        },
        LoopTruth {
            marker: "b < 16",
            parallel: true,
            reduction: false,
            note: "independent buffers (the parallel loop of md5)",
        },
        LoopTruth {
            marker: "i < 64",
            parallel: false,
            reduction: false,
            note: "hash chain within a buffer",
        },
    ],
};

/// ray-rot: c-ray followed by a rotation — a two-stage pipeline.
pub const RAY_ROT: Workload = Workload {
    name: "ray-rot",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float img[256];
global float rot[256];
fn main() {
    for (int y = 0; y < 16; y = y + 1) {
        for (int x = 0; x < 16; x = x + 1) {
            float fx = x * 0.125 - 1.0;
            float fy = y * 0.125 - 1.0;
            img[y * 16 + x] = fx * fx + fy * fy;
        }
    }
    for (int ry = 0; ry < 16; ry = ry + 1) {
        for (int rx = 0; rx < 16; rx = rx + 1) {
            rot[rx * 16 + (15 - ry)] = img[ry * 16 + rx];
        }
    }
    print(rot[0], rot[255]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "y < 16",
            parallel: true,
            reduction: false,
            note: "render stage rows",
        },
        LoopTruth {
            marker: "ry < 16",
            parallel: true,
            reduction: false,
            note: "rotate stage rows",
        },
    ],
};

/// rgbyuv: per-pixel colour conversion with temporaries declared outside
/// the loop — the Fig. 4.7 target: DOALL after privatizing r/g/b/y/u/v.
pub const RGBYUV: Workload = Workload {
    name: "rgbyuv",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global int rgb[768];
global int yout[256];
global int uout[256];
global int vout[256];
fn main() {
    srand(7);
    for (int i0 = 0; i0 < 768; i0 = i0 + 1) {
        rgb[i0] = rand() % 256;
    }
    int r = 0;
    int g = 0;
    int b = 0;
    for (int p = 0; p < 256; p = p + 1) {
        r = rgb[p * 3];
        g = rgb[p * 3 + 1];
        b = rgb[p * 3 + 2];
        yout[p] = (66 * r + 129 * g + 25 * b + 4096) >> 8;
        uout[p] = ((0 - 38) * r - 74 * g + 112 * b + 32768) >> 8;
        vout[p] = (112 * r - 94 * g - 18 * b + 32768) >> 8;
    }
    print(yout[0], uout[0], vout[0]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 768",
            parallel: true,
            reduction: false,
            note: "input fill",
        },
        LoopTruth {
            marker: "p < 256",
            parallel: true,
            reduction: false,
            note: "pixel conversion; needs r/g/b privatization (Fig. 4.7/4.8)",
        },
    ],
};

/// rotate: pure data movement, fully DOALL.
pub const ROTATE: Workload = Workload {
    name: "rotate",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float src[1024];
global float dst[1024];
fn main() {
    for (int i0 = 0; i0 < 1024; i0 = i0 + 1) {
        src[i0] = (i0 * 37 % 101) * 0.01;
    }
    for (int y = 0; y < 32; y = y + 1) {
        for (int x = 0; x < 32; x = x + 1) {
            dst[x * 32 + (31 - y)] = src[y * 32 + x];
        }
    }
    print(dst[0]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 1024",
            parallel: true,
            reduction: false,
            note: "fill",
        },
        LoopTruth {
            marker: "y < 32",
            parallel: true,
            reduction: false,
            note: "rotation rows (the parallel loop of rotate)",
        },
        LoopTruth {
            marker: "x < 32",
            parallel: true,
            reduction: false,
            note: "rotation columns",
        },
    ],
};

/// rot-cc: rotate then colour-convert — the three-phase structure whose CU
/// graph appears in Fig. 3.6 (two computations serving as barriers).
pub const ROT_CC: Workload = Workload {
    name: "rot-cc",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float src[256];
global float mid[256];
global float outp[256];
fn main() {
    for (int i0 = 0; i0 < 256; i0 = i0 + 1) {
        src[i0] = (i0 % 16) * 0.0625;
    }
    for (int y = 0; y < 16; y = y + 1) {
        for (int x = 0; x < 16; x = x + 1) {
            mid[x * 16 + (15 - y)] = src[y * 16 + x];
        }
    }
    for (int p = 0; p < 256; p = p + 1) {
        outp[p] = mid[p] * 0.299 + 0.587 * (1.0 - mid[p]);
    }
    print(outp[128]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 256",
            parallel: true,
            reduction: false,
            note: "fill",
        },
        LoopTruth {
            marker: "y < 16",
            parallel: true,
            reduction: false,
            note: "rotate phase",
        },
        LoopTruth {
            marker: "p < 256",
            parallel: true,
            reduction: false,
            note: "colour-convert phase",
        },
    ],
};

/// streamcluster: nearest-centre assignment (DOALL) with a cost reduction
/// and a sequential centre-opening decision.
pub const STREAMCLUSTER: Workload = Workload {
    name: "streamcluster",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float pt[256];
global float ctr[8];
global float cost;
global int nctr;
fn main() {
    srand(31);
    for (int i0 = 0; i0 < 256; i0 = i0 + 1) {
        pt[i0] = (rand() % 1000) * 0.001;
    }
    nctr = 1;
    ctr[0] = 0.5;
    for (int round = 0; round < 4; round = round + 1) {
        cost = 0.0;
        for (int i = 0; i < 256; i = i + 1) {
            float best = 99.0;
            for (int c = 0; c < 8; c = c + 1) {
                if (c < nctr) {
                    float d = pt[i] - ctr[c];
                    if (d < 0.0) {
                        d = 0.0 - d;
                    }
                    if (d < best) {
                        best = d;
                    }
                }
            }
            cost += best;
        }
        if (cost > 20.0) {
            if (nctr < 8) {
                ctr[nctr] = pt[(round * 67) % 256];
                nctr = nctr + 1;
            }
        }
    }
    print(cost, nctr);
}
"#,
    truths: &[
        LoopTruth {
            marker: "round < 4",
            parallel: false,
            reduction: false,
            note: "streaming rounds open centres sequentially",
        },
        LoopTruth {
            marker: "i < 256",
            parallel: true,
            reduction: true,
            note: "per-point nearest centre + cost reduction (hot loop)",
        },
    ],
};

/// tinyjpeg: sequential entropy decode feeding per-block IDCT — a
/// two-stage pipeline where only the second stage is DOALL.
pub const TINYJPEG: Workload = Workload {
    name: "tinyjpeg",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global int stream[512];
global int coeff[512];
global float block[512];
fn main() {
    srand(123);
    for (int i0 = 0; i0 < 512; i0 = i0 + 1) {
        stream[i0] = rand() % 64;
    }
    int state = 1;
    for (int i = 0; i < 512; i = i + 1) {
        state = (state * 5 + stream[i]) % 8191;
        coeff[i] = state % 128;
    }
    for (int b = 0; b < 8; b = b + 1) {
        for (int k = 0; k < 64; k = k + 1) {
            int c = coeff[b * 64 + k];
            block[b * 64 + k] = c * 0.125 + (c % 7) * 0.5;
        }
    }
    print(block[0], block[511]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 512",
            parallel: true,
            reduction: false,
            note: "stream fill",
        },
        LoopTruth {
            marker: "i < 512",
            parallel: false,
            reduction: false,
            note: "entropy decode: bitstream state recurrence",
        },
        LoopTruth {
            marker: "b < 8",
            parallel: true,
            reduction: false,
            note: "per-block IDCT (the parallel loop of tinyjpeg)",
        },
        LoopTruth {
            marker: "k < 64",
            parallel: true,
            reduction: false,
            note: "within-block transform",
        },
    ],
};

/// bodytrack: per-particle likelihood (DOALL), weight normalization
/// (reduction), sequential resampling prefix scan.
pub const BODYTRACK: Workload = Workload {
    name: "bodytrack",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float particle[128];
global float weight[128];
global float cdf[128];
global float wsum;
fn main() {
    srand(17);
    for (int i0 = 0; i0 < 128; i0 = i0 + 1) {
        particle[i0] = (rand() % 100) * 0.01;
    }
    for (int frame = 0; frame < 3; frame = frame + 1) {
        for (int i = 0; i < 128; i = i + 1) {
            float d = particle[i] - 0.5;
            weight[i] = exp(0.0 - d * d * 4.0);
        }
        wsum = 0.0;
        for (int j = 0; j < 128; j = j + 1) {
            wsum += weight[j];
        }
        cdf[0] = weight[0] / wsum;
        for (int k = 1; k < 128; k = k + 1) {
            cdf[k] = cdf[k - 1] + weight[k] / wsum;
        }
        for (int m = 0; m < 128; m = m + 1) {
            particle[m] = cdf[(m * 13) % 128];
        }
    }
    print(wsum);
}
"#,
    truths: &[
        LoopTruth {
            marker: "frame < 3",
            parallel: false,
            reduction: false,
            note: "frames are sequential",
        },
        LoopTruth {
            marker: "i < 128",
            parallel: true,
            reduction: false,
            note: "particle likelihood (the hot loop of bodytrack)",
        },
        LoopTruth {
            marker: "j < 128",
            parallel: true,
            reduction: true,
            note: "weight-sum reduction",
        },
        LoopTruth {
            marker: "k = 1; k < 128",
            parallel: false,
            reduction: false,
            note: "CDF prefix recurrence",
        },
        LoopTruth {
            marker: "m < 128",
            parallel: true,
            reduction: false,
            note: "resampling",
        },
    ],
};

/// h264dec: macroblock wavefront — each block depends on its left and
/// upper neighbours: a DOACROSS pattern.
pub const H264DEC: Workload = Workload {
    name: "h264dec",
    suite: Suite::Starbench,
    parallel_target: false,
    source: r#"global float mb[289];
fn main() {
    for (int i0 = 0; i0 < 17; i0 = i0 + 1) {
        mb[i0] = i0 * 0.1;
        mb[i0 * 17] = i0 * 0.2;
    }
    for (int r = 1; r < 17; r = r + 1) {
        for (int c = 1; c < 17; c = c + 1) {
            mb[r * 17 + c] = 0.5 * mb[r * 17 + c - 1] + 0.5 * mb[(r - 1) * 17 + c] + 0.01;
        }
    }
    print(mb[288]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 17",
            parallel: true,
            reduction: false,
            note: "border init",
        },
        LoopTruth {
            marker: "r = 1; r < 17",
            parallel: false,
            reduction: false,
            note: "macroblock rows: wavefront (DOACROSS)",
        },
        LoopTruth {
            marker: "c = 1; c < 17",
            parallel: false,
            reduction: false,
            note: "left-neighbour dependence within a row",
        },
    ],
};

// ---- Multi-threaded (pthread-style) variants for §2.3.4 / Fig. 2.10 ----

/// c-ray pthread version: scanline blocks per thread, no shared writes.
pub const C_RAY_PAR: Workload = Workload {
    name: "c-ray-par",
    suite: Suite::Starbench,
    parallel_target: true,
    source: r#"global float img[1024];
fn render(int t) {
    int lo = t * 8;
    for (int y = 0; y < 8; y = y + 1) {
        for (int x = 0; x < 32; x = x + 1) {
            float fx = x * 0.0625 - 1.0;
            float fy = (lo + y) * 0.0625 - 1.0;
            img[(lo + y) * 32 + x] = fx * fx + fy * fy;
        }
    }
}
fn main() {
    int t0 = spawn(render, 0);
    int t1 = spawn(render, 1);
    int t2 = spawn(render, 2);
    int t3 = spawn(render, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    print(img[0]);
}
"#,
    truths: &[],
};

/// kmeans pthread version: shared accumulators guarded by a lock.
pub const KMEANS_PAR: Workload = Workload {
    name: "kmeans-par",
    suite: Suite::Starbench,
    parallel_target: true,
    source: r#"global float px[128];
global float sumx[4];
global int cnt[4];
fn accumulate(int t) {
    for (int i = 0; i < 32; i = i + 1) {
        int idx = t * 32 + i;
        int c = idx % 4;
        lock(1);
        sumx[c] += px[idx];
        cnt[c] += 1;
        unlock(1);
    }
}
fn main() {
    srand(5);
    for (int i0 = 0; i0 < 128; i0 = i0 + 1) {
        px[i0] = (rand() % 1000) * 0.001;
    }
    int t0 = spawn(accumulate, 0);
    int t1 = spawn(accumulate, 1);
    int t2 = spawn(accumulate, 2);
    int t3 = spawn(accumulate, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    print(sumx[0], cnt[0]);
}
"#,
    truths: &[],
};

/// md5 pthread version: each thread hashes its own buffers.
pub const MD5_PAR: Workload = Workload {
    name: "md5-par",
    suite: Suite::Starbench,
    parallel_target: true,
    source: r#"global int data[1024];
global int digest[16];
fn hash(int t) {
    for (int b = 0; b < 4; b = b + 1) {
        int blk = t * 4 + b;
        int h = 1732584193;
        for (int i = 0; i < 64; i = i + 1) {
            h = ((h << 3) ^ (h >> 5)) + data[blk * 64 + i] * 2654435761 + 12345;
            h = h & 1073741823;
        }
        digest[blk] = h;
    }
}
fn main() {
    srand(99);
    for (int i0 = 0; i0 < 1024; i0 = i0 + 1) {
        data[i0] = rand() % 256;
    }
    int t0 = spawn(hash, 0);
    int t1 = spawn(hash, 1);
    int t2 = spawn(hash, 2);
    int t3 = spawn(hash, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    print(digest[0]);
}
"#,
    truths: &[],
};

/// rotate pthread version with an unsynchronized shared progress counter —
/// deliberately racy, to exercise the race-hint machinery.
pub const ROTATE_PAR: Workload = Workload {
    name: "rotate-par",
    suite: Suite::Starbench,
    parallel_target: true,
    source: r#"global float src[1024];
global float dst[1024];
global int progress;
fn rot(int t) {
    for (int y = 0; y < 8; y = y + 1) {
        int row = t * 8 + y;
        for (int x = 0; x < 32; x = x + 1) {
            dst[x * 32 + (31 - row)] = src[row * 32 + x];
        }
        progress = progress + 1;
    }
}
fn main() {
    for (int i0 = 0; i0 < 1024; i0 = i0 + 1) {
        src[i0] = (i0 % 64) * 0.015625;
    }
    int t0 = spawn(rot, 0);
    int t1 = spawn(rot, 1);
    int t2 = spawn(rot, 2);
    int t3 = spawn(rot, 3);
    join(t0);
    join(t1);
    join(t2);
    join(t3);
    print(progress);
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

    fn classify(w: &Workload, marker: &str) -> LoopClass {
        let p = w.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let line = w.line_of(marker).unwrap();
        d.loops
            .iter()
            .find(|l| l.info.start_line == line)
            .unwrap_or_else(|| panic!("loop at line {line} not analysed"))
            .class
    }

    #[test]
    fn c_ray_scanlines_doall() {
        assert_eq!(classify(&C_RAY, "y < 32"), LoopClass::Doall);
    }

    #[test]
    fn md5_chain_not_parallel_buffers_parallel() {
        assert_eq!(classify(&MD5, "b < 16"), LoopClass::Doall);
        assert!(matches!(
            classify(&MD5, "i < 64"),
            LoopClass::Doacross | LoopClass::Sequential
        ));
    }

    #[test]
    fn h264_wavefront_not_doall() {
        assert!(matches!(
            classify(&H264DEC, "c = 1; c < 17"),
            LoopClass::Doacross | LoopClass::Sequential
        ));
    }

    #[test]
    fn rgbyuv_needs_privatization_but_parallel() {
        let w = &RGBYUV;
        let p = w.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let line = w.line_of("p < 256").unwrap();
        let l = d.loops.iter().find(|l| l.info.start_line == line).unwrap();
        assert_eq!(l.class, LoopClass::Doall, "{l:?}");
        // Privatization advice must name the shared temporaries.
        let loops = discovery::hot_loops(&p, &out.pet);
        let target = loops.iter().find(|x| x.start_line == line).unwrap();
        let privs = discovery::doall::privatization_candidates(&p, &out.deps, target);
        assert!(privs.contains(&"r".to_string()), "{privs:?}");
    }

    #[test]
    fn parallel_variants_run_and_profile() {
        for w in [&C_RAY_PAR, &KMEANS_PAR, &MD5_PAR, &ROTATE_PAR] {
            let p = w.program().unwrap();
            let out = profiler::profile_program_with(&p, &racy()).unwrap();
            assert!(!out.deps.is_empty(), "{} produced no deps", w.name);
        }
    }
}
