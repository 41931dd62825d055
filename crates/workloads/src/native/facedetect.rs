//! FaceDetection task-graph execution (Fig. 4.10 / Fig. 4.11).
//!
//! The dissertation's FaceDetection case study parallelizes the application
//! by executing its task graph — per-scale feature passes that are mutually
//! independent — on a thread pool, reaching a speedup of 9.92 with 32
//! threads. This module reproduces the pipeline natively: frames flow
//! through scale → {edge pass ∥ skin pass} per scale → merge, with the
//! independent stages dispatched onto a crossbeam-scoped worker set.

/// Input description for the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct FaceDetectInput {
    /// Number of frames to process.
    pub frames: usize,
    /// Frame side length (pixels = side × side).
    pub side: usize,
    /// Number of detection scales per frame (each contributes two
    /// independent feature passes).
    pub scales: usize,
}

impl Default for FaceDetectInput {
    fn default() -> Self {
        FaceDetectInput {
            frames: 8,
            side: 64,
            scales: 8,
        }
    }
}

fn make_frame(f: usize, side: usize) -> Vec<f32> {
    (0..side * side)
        .map(|i| (((i * 29 + f * 131) % 67) as f32) * 0.015)
        .collect()
}

fn scale_frame(frame: &[f32], factor: usize) -> Vec<f32> {
    frame
        .iter()
        .map(|&v| v * 0.5 / (factor as f32 + 1.0) + 0.25)
        .collect()
}

fn edge_pass(scaled: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; scaled.len()];
    for i in 1..scaled.len() - 1 {
        out[i] = scaled[i + 1] - scaled[i - 1];
    }
    out
}

fn skin_pass(scaled: &[f32]) -> Vec<f32> {
    scaled.iter().map(|&v| v * v).collect()
}

fn merge_pass(edges: &[f32], skin: &[f32]) -> u64 {
    edges
        .iter()
        .zip(skin)
        .filter(|(&e, &s)| e > 0.001 && s > 0.05)
        .count() as u64
}

/// Run the pipeline with `threads` workers (1 = sequential semantics).
/// Returns total detector hits — identical for every thread count.
pub fn face_detection_pipeline(input: FaceDetectInput, threads: usize) -> u64 {
    let threads = threads.max(1);
    // Work items: (frame, scale) pairs; each runs scale→edge∥skin→merge.
    // With >1 threads the two feature passes of an item also overlap with
    // other items — exactly the task graph DiscoPoP emits for this app.
    let items: Vec<(usize, usize)> = (0..input.frames)
        .flat_map(|f| (0..input.scales).map(move |s| (f, s)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let total = std::sync::atomic::AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let (f, s) = items[i];
                let frame = make_frame(f, input.side);
                let scaled = scale_frame(&frame, s);
                // The two independent feature passes (MPMD tasks).
                let (edges, skin) = if threads > 1 {
                    crossbeam::thread::scope(|inner| {
                        let e = inner.spawn(|_| edge_pass(&scaled));
                        let k = skin_pass(&scaled);
                        (e.join().unwrap_or_else(|e| std::panic::resume_unwind(e)), k)
                    })
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
                } else {
                    (edge_pass(&scaled), skin_pass(&scaled))
                };
                let hits = merge_pass(&edges, &skin);
                total.fetch_add(hits, std::sync::atomic::Ordering::Relaxed);
            });
        }
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e));
    total.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_thread_counts() {
        let input = FaceDetectInput {
            frames: 4,
            side: 32,
            scales: 4,
        };
        let t1 = face_detection_pipeline(input, 1);
        let t4 = face_detection_pipeline(input, 4);
        let t8 = face_detection_pipeline(input, 8);
        assert_eq!(t1, t4);
        assert_eq!(t1, t8);
        assert!(t1 > 0, "the detector must find something");
    }
}
