//! STREAM memory-bandwidth kernels (McCalpin), behind Figure 4.
//!
//! The four canonical kernels measured over arrays far larger than cache.
//! On this host they give the *measured* bandwidth point; the KNL curves
//! of Figure 4 come from `sellkit-machine`'s calibrated model.

use std::time::Instant;

/// Result of one STREAM kernel measurement.
#[derive(Clone, Copy, Debug)]
pub struct StreamResult {
    /// Best (maximum) achieved bandwidth over the repetitions, in GB/s.
    pub best_gbs: f64,
    /// Bytes moved per kernel execution.
    pub bytes: usize,
}

/// The four STREAM kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]` — 16 B/element.
    Copy,
    /// `b[i] = s·c[i]` — 16 B/element.
    Scale,
    /// `c[i] = a[i] + b[i]` — 24 B/element.
    Add,
    /// `a[i] = b[i] + s·c[i]` — 24 B/element.
    Triad,
}

impl StreamKernel {
    /// Bytes moved per element (STREAM counting: read + write streams).
    pub fn bytes_per_elem(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }
}

/// The STREAM scalar `s`.
const SCALAR: f64 = 3.0;

/// The arrays `a`, `b`, `c`, each filled with nonzero data so no kernel
/// reads an untouched (shared zero) page.
fn stream_arrays(n: usize) -> [Vec<f64>; 3] {
    [
        (0..n).map(|i| 1.0 + i as f64 * 0.5).collect(),
        vec![2.0; n],
        (0..n).map(|i| 0.5 + (i % 7) as f64).collect(),
    ]
}

/// One execution of `kernel` over the arrays.
fn stream_step(kernel: StreamKernel, [a, b, c]: &mut [Vec<f64>; 3]) {
    let s = SCALAR;
    match kernel {
        StreamKernel::Copy => c.copy_from_slice(a),
        StreamKernel::Scale => {
            for (bi, ci) in b.iter_mut().zip(c.iter()) {
                *bi = s * ci;
            }
        }
        StreamKernel::Add => {
            for ((ci, ai), bi) in c.iter_mut().zip(a.iter()).zip(b.iter()) {
                *ci = ai + bi;
            }
        }
        StreamKernel::Triad => {
            for ((ai, bi), ci) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                *ai = bi + s * ci;
            }
        }
    }
}

/// Runs one STREAM kernel on `n`-element arrays, `reps` repetitions,
/// reporting the best bandwidth (the standard STREAM methodology).
pub fn run_stream(kernel: StreamKernel, n: usize, reps: usize) -> StreamResult {
    assert!(
        n >= 1024,
        "arrays must dwarf the cache to measure bandwidth"
    );
    assert!(reps >= 1);
    let mut arrays = stream_arrays(n);

    let bytes = n * kernel.bytes_per_elem();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        stream_step(kernel, &mut arrays);
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        // Defeat dead-code elimination.
        std::hint::black_box(&arrays);
    }
    StreamResult {
        best_gbs: bytes as f64 / best / 1e9,
        bytes,
    }
}

/// Runs all four kernels, returning `(kernel, result)` pairs — one row of
/// the classic STREAM report.
pub fn run_all(n: usize, reps: usize) -> Vec<(StreamKernel, StreamResult)> {
    [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ]
    .into_iter()
    .map(|k| (k, run_stream(k, n, reps)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_produce_positive_bandwidth() {
        for (k, r) in run_all(1 << 16, 3) {
            assert!(r.best_gbs > 0.0, "{k:?}");
            assert_eq!(r.bytes, (1 << 16) * k.bytes_per_elem());
        }
    }

    #[test]
    fn triad_reads_nonzero_inputs() {
        let mut arrays = stream_arrays(1 << 12);
        stream_step(StreamKernel::Triad, &mut arrays);
        let [a, b, c] = &arrays;
        assert!(c.iter().all(|&v| v != 0.0), "c must hold data");
        for i in 0..a.len() {
            assert_eq!(a[i], b[i] + 3.0 * c[i], "a[{i}]");
        }
    }

    #[test]
    fn triad_moves_more_bytes_than_copy() {
        assert!(StreamKernel::Triad.bytes_per_elem() > StreamKernel::Copy.bytes_per_elem());
    }

    #[test]
    #[should_panic(expected = "dwarf the cache")]
    fn tiny_arrays_rejected() {
        run_stream(StreamKernel::Triad, 16, 1);
    }
}
