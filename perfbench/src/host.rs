//! The host stamp recorded with every result, and the measured bandwidth
//! the roofline fractions are taken against.

use std::sync::Barrier;
use std::time::Instant;

/// STREAM counts a triad element as 24 bytes (two loads, one store).  The
/// §6 SpMV model also charges the write-allocate read of the output
/// vector (`16·m` for `y`), so the triad is re-counted the same way — 32
/// bytes per element — before the two are divided.
pub const TRIAD_BYTES_PER_ELEM: f64 = 32.0;

/// Repetitions per triad measurement (the best one is kept, as in STREAM).
const TRIAD_REPS: usize = 8;

/// Measured STREAM triad `a = b + s·c` in GB/s with write-allocate
/// counting, over three arrays of `total_bytes` in all, split evenly
/// across `threads` threads.  Each thread first-touches its own arrays;
/// a repetition takes as long as its slowest thread, and the best
/// repetition is kept.
///
/// `sellkit_workloads::stream::run_stream` is not used: its `c` array is
/// allocated zeroed and never written, so the triad reads it from the
/// shared zero page and overstates bandwidth by a third, and it runs on
/// one thread only.
pub fn triad_gbs(total_bytes: usize, threads: usize) -> f64 {
    let n = (total_bytes / 24 / threads).max(1024);
    let barrier = Barrier::new(threads);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut a = vec![1.0f64; n];
                    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    let c: Vec<f64> = (0..n).map(|i| 0.5 * i as f64).collect();
                    (0..TRIAD_REPS)
                        .map(|_| {
                            barrier.wait();
                            let t = Instant::now();
                            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                                *a = b + 3.0 * c;
                            }
                            std::hint::black_box(&mut a);
                            t.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("triad thread panicked"))
            .collect()
    });
    let best = (0..TRIAD_REPS)
        .map(|r| per_thread.iter().map(|t| t[r]).fold(0.0, f64::max))
        .fold(f64::INFINITY, f64::min);
    (n * threads) as f64 * TRIAD_BYTES_PER_ELEM / best / 1e9
}

/// Host facts stated next to every result.
pub struct Stamp {
    /// Threads available to this process.
    pub nproc: usize,
    /// Last-level cache size in bytes (0 when unknown).
    pub llc_bytes: u64,
    /// Widest SIMD tier the kernels dispatch to.
    pub isa: String,
    /// Total bytes of the three triad arrays.
    pub triad_bytes: usize,
    /// Triad GB/s at one thread.
    pub triad_gbs_t1: f64,
    /// Triad GB/s at `nproc` threads.
    pub triad_gbs: f64,
    /// Commit of the source tree, when it is a git checkout.
    pub git_rev: String,
}

impl Stamp {
    /// Measures the triad over `triad_bytes` at 1 and `nproc` threads.
    pub fn take(nproc: usize, triad_bytes: usize) -> Self {
        Stamp {
            nproc,
            llc_bytes: llc_bytes(),
            isa: format!("{:?}", sellkit_core::Isa::detect()),
            triad_bytes,
            triad_gbs_t1: triad_gbs(triad_bytes, 1),
            triad_gbs: triad_gbs(triad_bytes, nproc),
            git_rev: git_rev(),
        }
    }

    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"llc_bytes\": {}, \"isa\": \"{}\", \"triad_bytes\": {}, \
             \"triad_gbs_t1\": {}, \"triad_gbs\": {}, \"triad_bytes_per_elem\": {}, \"git_rev\": \"{}\"}}",
            self.nproc,
            self.llc_bytes,
            self.isa,
            self.triad_bytes,
            self.triad_gbs_t1,
            self.triad_gbs,
            TRIAD_BYTES_PER_ELEM,
            self.git_rev
        )
    }
}

/// Threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Size of the highest-level cache of CPU 0, from sysfs.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let (num, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        let bytes = num.parse::<u64>().unwrap_or(0) * mult;
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit checked out in the repository this benchmark belongs to, or
/// `"unknown"` when the tree is not a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map_or_else(|_| format!("unresolved {r}"), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}
