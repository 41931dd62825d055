//! Open-source application stand-ins: gzip, bzip2 (Table 4.5), the
//! histogram program (Table 4.3), libVorbis and FaceDetection (Table 4.7 /
//! Fig. 4.10).

use crate::meta::{LoopTruth, Suite, Workload};

/// All application stand-ins.
pub fn suite() -> Vec<Workload> {
    vec![GZIP, BZIP2, HISTOGRAM, LIBVORBIS, FACEDETECTION]
}

/// gzip: per-block deflate. Within a block the LZ window match is a
/// recurrence; across blocks compression is independent — the pigz-style
/// opportunity Table 4.5 reports as the key suggestion.
pub const GZIP: Workload = Workload {
    name: "gzip",
    suite: Suite::Apps,
    parallel_target: false,
    source: r#"global int input[1024];
global int outlen[8];
fn deflate(int blk) -> int {
    int base = blk * 128;
    int produced = 0;
    int prev = 0;
    for (int i = 0; i < 128; i = i + 1) {
        int sym = input[base + i];
        if (sym == prev) {
            produced = produced + 1;
        } else {
            produced = produced + 2;
        }
        prev = sym;
    }
    return produced;
}
fn main() {
    srand(1951);
    for (int i0 = 0; i0 < 1024; i0 = i0 + 1) {
        input[i0] = rand() % 16;
    }
    for (int b = 0; b < 8; b = b + 1) {
        outlen[b] = deflate(b);
    }
    print(outlen[0], outlen[7]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 1024",
            parallel: true,
            reduction: false,
            note: "input fill",
        },
        LoopTruth {
            marker: "b < 8",
            parallel: true,
            reduction: false,
            note: "independent blocks — the pigz-style key opportunity",
        },
        LoopTruth {
            marker: "i < 128",
            parallel: false,
            reduction: false,
            note: "LZ window recurrence within a block",
        },
    ],
};

/// bzip2: per-block transform (sort passes + MTF recurrence). Blocks are
/// independent (the bzip2smp opportunity of Table 4.5).
pub const BZIP2: Workload = Workload {
    name: "bzip2",
    suite: Suite::Apps,
    parallel_target: false,
    source: r#"global int data[512];
global int mtf[512];
global int checksum[4];
fn compress_block(int blk) -> int {
    int base = blk * 128;
    int state = 0;
    for (int i = 0; i < 128; i = i + 1) {
        state = (state * 3 + data[base + i]) % 251;
        mtf[base + i] = state;
    }
    int sum = 0;
    for (int j = 0; j < 128; j = j + 1) {
        sum += mtf[base + j];
    }
    return sum;
}
fn main() {
    srand(1996);
    for (int i0 = 0; i0 < 512; i0 = i0 + 1) {
        data[i0] = rand() % 256;
    }
    for (int b = 0; b < 4; b = b + 1) {
        checksum[b] = compress_block(b);
    }
    print(checksum[0], checksum[3]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "b < 4",
            parallel: true,
            reduction: false,
            note: "independent blocks — the bzip2smp opportunity",
        },
        LoopTruth {
            marker: "i < 128",
            parallel: false,
            reduction: false,
            note: "MTF state recurrence",
        },
        LoopTruth {
            marker: "j < 128",
            parallel: true,
            reduction: true,
            note: "block checksum reduction",
        },
    ],
};

/// The histogram visualization program of Table 4.3.
pub const HISTOGRAM: Workload = Workload {
    name: "histogram",
    suite: Suite::Apps,
    parallel_target: false,
    source: r#"global int image[1024];
global int hist[64];
global int cdf[64];
fn main() {
    srand(42);
    for (int i0 = 0; i0 < 1024; i0 = i0 + 1) {
        image[i0] = rand() % 64;
    }
    for (int i = 0; i < 1024; i = i + 1) {
        hist[image[i]] += 1;
    }
    cdf[0] = hist[0];
    for (int b = 1; b < 64; b = b + 1) {
        cdf[b] = cdf[b - 1] + hist[b];
    }
    for (int p = 0; p < 1024; p = p + 1) {
        image[p] = (cdf[image[p]] * 63) / 1024;
    }
    print(hist[0], cdf[63]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "i0 < 1024",
            parallel: true,
            reduction: false,
            note: "image fill",
        },
        LoopTruth {
            marker: "i < 1024",
            parallel: true,
            reduction: true,
            note: "histogram accumulation (reduction on hist)",
        },
        LoopTruth {
            marker: "b = 1; b < 64",
            parallel: false,
            reduction: false,
            note: "CDF prefix recurrence",
        },
        LoopTruth {
            marker: "p < 1024",
            parallel: true,
            reduction: false,
            note: "equalization remap",
        },
    ],
};

/// libVorbis: packet decode (sequential bitstream), per-channel synthesis
/// (independent), overlap-add (DOALL) — the MPMD channels of Table 4.7.
pub const LIBVORBIS: Workload = Workload {
    name: "libvorbis",
    suite: Suite::Apps,
    parallel_target: false,
    source: r#"global int packet[256];
global float left[256];
global float right[256];
global float pcm[256];
fn synth_left() {
    for (int i = 0; i < 256; i = i + 1) {
        left[i] = packet[i] * 0.01 + 0.1;
    }
}
fn synth_right() {
    for (int i = 0; i < 256; i = i + 1) {
        right[i] = packet[i] * 0.012 - 0.05;
    }
}
fn main() {
    srand(3);
    int state = 7;
    for (int d = 0; d < 256; d = d + 1) {
        state = (state * 9 + d) % 127;
        packet[d] = state;
    }
    synth_left();
    synth_right();
    for (int m = 0; m < 256; m = m + 1) {
        pcm[m] = left[m] * 0.5 + right[m] * 0.5;
    }
    print(pcm[0], pcm[255]);
}
"#,
    truths: &[
        LoopTruth {
            marker: "d < 256",
            parallel: false,
            reduction: false,
            note: "bitstream decode recurrence",
        },
        LoopTruth {
            marker: "m < 256",
            parallel: true,
            reduction: false,
            note: "overlap-add mix",
        },
    ],
};

/// FaceDetection: the Fig. 4.10 pipeline — scale, two independent feature
/// passes per scale, then a merge, which discovery reports as MPMD tasks
/// (Table 4.7).
pub const FACEDETECTION: Workload = Workload {
    name: "facedetection",
    suite: Suite::Apps,
    parallel_target: false,
    source: r#"global float frame[256];
global float scaled[256];
global float edges[256];
global float skin[256];
global int hits;
fn scale_frame() {
    for (int i = 0; i < 256; i = i + 1) {
        scaled[i] = frame[i] * 0.5 + 0.25;
    }
}
fn edge_pass() {
    for (int i = 1; i < 255; i = i + 1) {
        edges[i] = scaled[i + 1] - scaled[i - 1];
    }
}
fn skin_pass() {
    for (int i = 0; i < 256; i = i + 1) {
        skin[i] = scaled[i] * scaled[i];
    }
}
fn merge_pass() {
    hits = 0;
    for (int i = 1; i < 255; i = i + 1) {
        if (edges[i] > 0.1) {
            if (skin[i] > 0.2) {
                hits = hits + 1;
            }
        }
    }
}
fn main() {
    for (int i0 = 0; i0 < 256; i0 = i0 + 1) {
        frame[i0] = ((i0 * 29) % 67) * 0.015;
    }
    scale_frame();
    edge_pass();
    skin_pass();
    merge_pass();
    print(hits);
}
"#,
    truths: &[LoopTruth {
        marker: "i0 < 256",
        parallel: true,
        reduction: false,
        note: "frame fill",
    }],
};

#[cfg(test)]
mod tests {
    use super::*;
    use discovery::{LoopClass, SpmdKind};

    #[test]
    fn gzip_blocks_suggested_as_tasks() {
        let p = GZIP.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let line = GZIP.line_of("b < 8").unwrap();
        let l = d.loops.iter().find(|l| l.info.start_line == line).unwrap();
        assert_eq!(l.class, LoopClass::Doall, "{l:?}");
        assert!(
            d.spmd
                .iter()
                .any(|s| s.kind == SpmdKind::LoopTask
                    && s.callees.contains(&"deflate".to_string())),
            "{:?}",
            d.spmd
        );
    }

    #[test]
    fn histogram_loop_is_reduction() {
        let p = HISTOGRAM.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        let line = HISTOGRAM.line_of("i < 1024").unwrap();
        let l = d.loops.iter().find(|l| l.info.start_line == line).unwrap();
        assert_eq!(l.class, LoopClass::Reduction, "{l:?}");
    }

    #[test]
    fn facedetection_feature_passes_are_independent_tasks() {
        let p = FACEDETECTION.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        // edge_pass and skin_pass read `scaled` and write disjoint outputs:
        // sibling tasks.
        assert!(
            d.spmd.iter().any(|s| {
                s.kind == SpmdKind::SiblingCalls
                    && s.callees.contains(&"edge_pass".to_string())
                    && s.callees.contains(&"skin_pass".to_string())
            }),
            "{:?}",
            d.spmd
        );
    }

    #[test]
    fn libvorbis_channels_are_independent_tasks() {
        let p = LIBVORBIS.program().unwrap();
        let out = profiler::profile_program(&p).unwrap();
        let d = discovery::discover(&p, &out.deps, &out.pet);
        assert!(
            d.spmd.iter().any(|s| {
                s.kind == SpmdKind::SiblingCalls
                    && s.callees.contains(&"synth_left".to_string())
                    && s.callees.contains(&"synth_right".to_string())
            }),
            "{:?}",
            d.spmd
        );
    }
}
