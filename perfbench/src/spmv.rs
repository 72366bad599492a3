//! `spmv_sweep`: repeated `Operator::apply` on Gray-Scott Jacobians.
//!
//! Two sizes, chosen against the host's caches: 64² (82k nonzeros, about
//! 1 MiB) is dispatch-bound, 1024² (21M nonzeros, about 280 MB in SELL-8)
//! streams from DRAM.  Five formats × k ∈ {1, 8} × {1, `nproc`} threads.
//! Solver, assembly and serve layers are bypassed: the Jacobians are
//! assembled once, outside every timed region.  The seed picks the state
//! the Jacobians are taken at and the input vectors.
//!
//! Every format is checked against a scalar-CSR product computed here
//! (packed codecs against the CSR of their quantized values), and the
//! `nproc`-thread output must equal the 1-thread output bit for bit.
//! The end-to-end figures are the one-thread 1024² SELL-8 products at
//! k = 1 (latency) and k = 8 (right-hand sides per second); see
//! [`Headline`] for why.  Achieved bandwidth counts the §6 model's bytes; the roofline fraction
//! divides it by the best STREAM triad measured during the same run, at
//! the same thread count, over a working set the size of the SELL-8
//! product's, with bytes counted the same way.

use std::time::Instant;

use sellkit_core::{
    Apply, Codec, Csr, ExecCtx, MatShape, Operator, Sell, Sell8, SellSigma8, VecView, VecViewMut,
};
use sellkit_solvers::ts::OdeProblem;
use sellkit_workloads::{GrayScott, GrayScottParams};

use crate::stats::median;
use crate::{host, trace, Args, Report};

/// Grid edge of the dispatch-bound matrix.
const SMALL: usize = 64;
/// Grid edge of the DRAM-bound matrix.
const BIG: usize = 1024;
/// Working set of the triads: about the SELL-8 traffic of one 1024²
/// product, the same order as every 1024² cell's.
pub const DRAM_BYTES: usize = 288 << 20;
/// A roofline fraction above this is a failed check: the model or the
/// measurement is wrong.
const ROOF_LIMIT: f64 = 1.05;
const SETUP_REPS: usize = 5;
/// Minimum samples per cell, whatever the time budget.
const MIN_SAMPLES: usize = 5;

const FORMATS: [(&str, Codec); 5] = [
    ("csr", Codec::F64),
    ("sell8", Codec::F64),
    ("sell8_sigma32", Codec::F64),
    ("sell8_f32", Codec::F32),
    ("sell8_bf16", Codec::Bf16),
];

/// The headline format and the one the end-to-end metrics use.
const HEADLINE: &str = "sell8";

/// A format built from the assembled CSR, or one that already exists (the
/// CSR itself, the resident headline matrix).
enum Op<'a> {
    Ref(&'a dyn Operator),
    Owned(Box<dyn Operator + Sync>),
}

impl Op<'_> {
    fn get(&self) -> &dyn Operator {
        match self {
            Op::Ref(a) => *a,
            Op::Owned(b) => b.as_ref(),
        }
    }
}

fn build<'a>(name: &str, a: &'a Csr) -> Op<'a> {
    match name {
        "csr" => Op::Ref(a),
        "sell8" => Op::Owned(Box::new(Sell8::from_csr(a))),
        "sell8_sigma32" => Op::Owned(Box::new(SellSigma8::from_csr_sigma(a, 32))),
        "sell8_f32" => Op::Owned(Box::new(Sell::<8>::from_csr_codec(a, Codec::F32))),
        "sell8_bf16" => Op::Owned(Box::new(Sell::<8>::from_csr_codec(a, Codec::Bf16))),
        _ => unreachable!("format table and builder agree"),
    }
}

fn jacobian(grid: usize, seed: u64) -> Csr {
    let gs = GrayScott::new(grid, GrayScottParams::default());
    gs.rhs_jacobian(0.0, &gs.initial_condition(seed))
}

/// `len` values in [-1, 1) from a seeded xorshift stream.
pub fn seeded_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// Whether `y` agrees with `r` within the summation-order rounding bound
/// `32·ε·Σ|aᵢⱼ·xⱼ|` of its row (computed by `row_abs` only when the two
/// differ).  Written so that a NaN on either side disagrees.
fn agrees(y: f64, r: f64, row_abs: impl FnOnce() -> f64) -> bool {
    y == r || (y - r).abs() <= 32.0 * f64::EPSILON * row_abs()
}

/// `Σ|q(aᵢⱼ)·xⱼ|` over row `i` for vector `v` of `k`.
fn row_abs(a: &Csr, codec: Codec, x: &[f64], k: usize, i: usize, v: usize) -> f64 {
    a.row_cols(i)
        .iter()
        .zip(a.row_vals(i))
        .map(|(&j, &val)| (codec.quantize(val) * x[j as usize * k + v]).abs())
        .sum()
}

/// Checks `y` (`k` interleaved vectors) against a scalar CSR product over
/// the codec-quantized values of `a`, computed here row by row.
fn check_against_csr(a: &Csr, codec: Codec, x: &[f64], k: usize, y: &[f64]) -> Result<(), String> {
    let mut acc = vec![0.0; k];
    for i in 0..a.nrows() {
        acc.fill(0.0);
        for (&j, &val) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let q = codec.quantize(val);
            for (c, xv) in acc.iter_mut().zip(&x[j as usize * k..(j as usize + 1) * k]) {
                *c += q * xv;
            }
        }
        for (v, &r) in acc.iter().enumerate() {
            let got = y[i * k + v];
            if !agrees(got, r, || row_abs(a, codec, x, k, i, v)) {
                return Err(format!("row {i} vector {v}: got {got:e}, reference {r:e}"));
            }
        }
    }
    Ok(())
}

/// Checks `y` against a reference product `r` of the same operands.
pub fn close(
    a: &Csr,
    codec: Codec,
    x: &[f64],
    k: usize,
    y: &[f64],
    r: &[f64],
) -> Result<(), String> {
    for i in 0..a.nrows() {
        for v in 0..k {
            let (got, want) = (y[i * k + v], r[i * k + v]);
            if !agrees(got, want, || row_abs(a, codec, x, k, i, v)) {
                return Err(format!(
                    "row {i} vector {v}: got {got:e}, reference {want:e}"
                ));
            }
        }
    }
    Ok(())
}

fn apply(op: &dyn Operator, ctx: &ExecCtx, x: &[f64], y: &mut [f64], k: usize) {
    op.apply(
        ctx,
        VecView::blocked(x, k),
        VecViewMut::blocked(y, k),
        Apply::Set,
    );
}

/// Times repeated products for `budget` seconds; returns seconds per
/// product.  A traced cell records a span per product.
fn time_cell(
    op: &dyn Operator,
    ctx: &ExecCtx,
    x: &[f64],
    y: &mut [f64],
    k: usize,
    budget: f64,
    traced: bool,
) -> Vec<f64> {
    for _ in 0..2 {
        apply(op, ctx, x, y, k);
    }
    let cell_t0 = trace::now_ns();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < budget {
        let t0 = trace::now_ns();
        apply(op, ctx, x, y, k);
        let t1 = trace::now_ns();
        if traced {
            trace::record(trace::MATMULT, t0, t1, op.nrows() as u64);
        }
        samples.push((t1 - t0) as f64 * 1e-9);
    }
    if traced {
        trace::record(trace::CELL, cell_t0, trace::now_ns(), 0);
    }
    samples
}

/// Warm per-call cost of a no-op `ExecCtx::dispatch` over every lane.
fn dispatch_ns(ctx: &ExecCtx) -> f64 {
    let noop: &(dyn Fn(usize) + Sync) = &|_| {};
    for _ in 0..200 {
        ctx.dispatch(ctx.threads(), noop);
    }
    let per_batch: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..500 {
                ctx.dispatch(ctx.threads(), noop);
            }
            t.elapsed().as_secs_f64() * 1e9 / 500.0
        })
        .collect();
    median(&per_batch)
}

/// One measured (size, format, k, threads) combination.
struct CellResult {
    grid: usize,
    fmt: &'static str,
    k: usize,
    threads: usize,
    secs: f64,
    samples: usize,
    flops: u64,
    bytes: u64,
    nnz: usize,
}

impl CellResult {
    fn new(
        grid: usize,
        fmt: &'static str,
        k: usize,
        threads: usize,
        op: &dyn Operator,
        samples: &[f64],
    ) -> Self {
        CellResult {
            grid,
            fmt,
            k,
            threads,
            secs: median(samples),
            samples: samples.len(),
            flops: op.spmm_flops(k),
            bytes: op.spmm_traffic(k).bytes,
            nnz: op.nnz(),
        }
    }
    fn gflops(&self) -> f64 {
        self.flops as f64 / self.secs / 1e9
    }
    fn gbs(&self) -> f64 {
        self.bytes as f64 / self.secs / 1e9
    }
}

/// Time weight of a sweep cell.
fn weight(grid: usize) -> f64 {
    if grid == BIG {
        1.0
    } else {
        0.5
    }
}

/// Total time weight of each headline cell.
const HEADLINE_WEIGHT: f64 = 4.0;
/// Block widths of the headline cells: 1024² SELL-8 on one thread, k = 1
/// for the latency figure and k = 8 for the throughput figure.
const HEADLINE_K: [usize; 2] = [1, 8];

/// Samples of one headline cell.  Its matrix stays resident so that the
/// cell is measured in slices after every 1024² format block: a few
/// seconds of interference then spoil a slice, not the figure.  The
/// end-to-end figures are single-threaded and DRAM-bound because on a
/// small shared host the second lane and the in-cache speed come and go
/// with the neighbours' load: `nproc`-thread and 64² medians moved by a
/// fifth to a half between runs.  Those cells are still measured, printed
/// and reported per layer.
#[derive(Default)]
struct Headline {
    samples: Vec<f64>,
    /// Untraced samples of a traced run, for the overhead figure.
    plain: Vec<f64>,
}

pub fn run(args: &Args, rep: &mut Report) {
    let nproc = args.nproc;
    let ctx = ExecCtx::new(nproc);
    let serial = ExecCtx::serial();
    let mut threads = vec![1, nproc];
    threads.dedup();

    let t = Instant::now();
    let mats = [
        (SMALL, jacobian(SMALL, args.seed)),
        (BIG, jacobian(BIG, args.seed)),
    ];
    rep.line(format!(
        "assembly_s {} s (both Jacobians; not part of set-up)",
        t.elapsed().as_secs_f64()
    ));

    // Set-up: MatConvert of the big Jacobian to SELL-8 plus the first
    // product at k = 1 and k = 8, which builds and caches the plans.
    let big = &mats[1].1;
    let x1 = seeded_vec(big.ncols(), args.seed ^ 1);
    let x8 = seeded_vec(big.ncols() * 8, args.seed ^ 8);
    let mut y1 = vec![0.0; big.nrows()];
    let mut y8 = vec![0.0; big.nrows() * 8];
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let s = Sell8::from_csr(big);
            apply(&s, &ctx, &x1, &mut y1, 1);
            apply(&s, &ctx, &x8, &mut y8, 8);
            t.elapsed().as_secs_f64()
        })
        .collect();
    drop((x1, x8, y1, y8));

    let head_op = Sell8::from_csr(big);
    let mut heads: [Headline; 2] = Default::default();
    let cells_per_grid = (FORMATS.len() * 2 * threads.len()) as f64;
    let sweep_w = weight(SMALL) * cells_per_grid + weight(BIG) * (cells_per_grid - 2.0);
    let unit = args.seconds / (sweep_w + HEADLINE_WEIGHT * heads.len() as f64);
    let slice = unit * HEADLINE_WEIGHT / FORMATS.len() as f64;

    let mut cells: Vec<CellResult> = Vec::new();
    let mut bytes_per_nnz = Vec::new();
    let (mut roof_t1, mut roof_tn) = (0.0f64, 0.0f64);
    for (grid, a) in &mats {
        let grid = *grid;
        let x1 = seeded_vec(a.ncols(), args.seed ^ 1);
        let x8 = seeded_vec(a.ncols() * 8, args.seed ^ 8);
        let mut ys = vec![0.0; a.nrows() * 8];
        let mut yp = vec![0.0; a.nrows() * 8];
        for (fmt, codec) in FORMATS {
            let headline = grid == BIG && fmt == HEADLINE;
            let built = if headline {
                Op::Ref(&head_op)
            } else {
                build(fmt, a)
            };
            let op = built.get();
            for (k, x) in [(1, &x1), (8, &x8)] {
                let n = a.nrows() * k;
                apply(op, &serial, x, &mut ys[..n], k);
                let res = check_against_csr(a, codec, x, k, &ys[..n]);
                rep.check(res.is_ok(), || {
                    format!("{fmt} {grid}² k={k} vs scalar CSR: {}", res.unwrap_err())
                });
                apply(op, &ctx, x, &mut yp[..n], k);
                let same = ys[..n]
                    .iter()
                    .zip(&yp[..n])
                    .all(|(s, p)| s.to_bits() == p.to_bits());
                rep.check(same, || {
                    format!("{fmt} {grid}² k={k}: {nproc}-thread output differs from 1-thread")
                });
            }
            if grid == BIG {
                bytes_per_nnz.push((fmt, op.spmv_traffic().bytes as f64 / op.nnz() as f64));
            }
            for (k, x) in [(1, &x1), (8, &x8)] {
                for &th in &threads {
                    if headline && th == 1 {
                        continue; // measured in slices below
                    }
                    let c = if th == 1 { &serial } else { &ctx };
                    let n = a.nrows() * k;
                    let s = time_cell(op, c, x, &mut yp[..n], k, unit * weight(grid), args.trace);
                    cells.push(CellResult::new(grid, fmt, k, th, op, &s));
                }
            }
            drop(built);
            if grid != BIG {
                continue;
            }
            // The roof is the best triad seen over the run: measured after
            // every 1024² block, so that a stretch of host contention
            // cannot stand in for the machine's bandwidth.
            roof_t1 = roof_t1.max(host::triad_gbs(DRAM_BYTES, 1));
            roof_tn = roof_tn.max(host::triad_gbs(DRAM_BYTES, nproc));
            for (h, k) in heads.iter_mut().zip(HEADLINE_K) {
                let (x, n) = (if k == 1 { &x1 } else { &x8 }, a.nrows() * k);
                if args.trace {
                    let s = time_cell(&head_op, &serial, x, &mut yp[..n], k, slice / 2.0, false);
                    h.plain.extend(s);
                }
                let s = time_cell(&head_op, &serial, x, &mut yp[..n], k, slice, args.trace);
                h.samples.extend(s);
            }
        }
    }
    for (h, k) in heads.iter().zip(HEADLINE_K) {
        cells.push(CellResult::new(BIG, HEADLINE, k, 1, &head_op, &h.samples));
    }
    let plain_headline = std::mem::take(&mut heads[0].plain);
    drop(head_op);
    let dispatch = dispatch_ns(&ctx);
    let rss = host::peak_rss_mb();
    drop(mats);

    let find = |grid, fmt: &str, k, th| {
        cells
            .iter()
            .find(|c| c.grid == grid && c.fmt == fmt && c.k == k && c.threads == th)
            .expect("every cell was measured")
    };
    let head = find(BIG, HEADLINE, 1, nproc);
    let head_t1 = find(BIG, HEADLINE, 1, 1);
    let small = find(SMALL, HEADLINE, 1, nproc);
    let spmm_t1 = find(BIG, HEADLINE, 8, 1);
    let spmm = find(BIG, HEADLINE, 8, nproc);

    let roof_of = |c: &CellResult| c.gbs() / if c.threads == 1 { roof_t1 } else { roof_tn };
    for c in cells.iter().filter(|c| c.grid == BIG) {
        let f = roof_of(c);
        rep.check(f <= ROOF_LIMIT, || {
            format!(
                "{} {}² k={} t{}: roofline fraction {f} above {ROOF_LIMIT}",
                c.fmt, c.grid, c.k, c.threads
            )
        });
    }

    rep.set("setup_s", median(&setup));
    rep.set("latency_ms", head_t1.secs * 1e3);
    rep.set("throughput_per_s", 8.0 / spmm_t1.secs);
    rep.set("rss_mb", rss);
    for (name, c) in [
        ("spmv_gflops", head),
        ("spmv_t1_gflops", head_t1),
        ("spmv_small_gflops", small),
        ("spmm_gflops", spmm),
    ] {
        rep.line(format!(
            "{name} {} GFLOP/s ({} {}x{} k={} {} thread(s), median of {} products)",
            c.gflops(),
            c.fmt,
            c.grid,
            c.grid,
            c.k,
            c.threads,
            c.samples
        ));
    }
    rep.line(format!(
        "sizes: triad working set {} MB (best triad {roof_t1} GB/s at 1 thread, {roof_tn} GB/s \
         at {nproc}); LLC {} MB; 1024² sell8 product {} MB, 64² sell8 product {} MB",
        DRAM_BYTES as f64 / 1e6,
        host::llc_bytes() as f64 / 1e6,
        head.bytes as f64 / 1e6,
        small.bytes as f64 / 1e6
    ));
    for c in &cells {
        let roof = if c.grid == BIG {
            format!("{:.3}", roof_of(c))
        } else {
            "-".into()
        };
        rep.line(format!(
            "cell {:>4}² {:<14} k={} t{}: {:>12.1} us {:>7.2} GFLOP/s {:>7.2} GB/s roof {roof} ({} samples, {:.2} B/nnz)",
            c.grid,
            c.fmt,
            c.k,
            c.threads,
            c.secs * 1e6,
            c.gflops(),
            c.gbs(),
            c.samples,
            c.bytes as f64 / c.nnz as f64
        ));
    }

    if args.trace {
        for (fmt, bpn) in bytes_per_nnz {
            let c = find(BIG, fmt, 1, nproc);
            let (gbs, bpn_name, roof) = kernel_names(fmt);
            rep.set(gbs, c.gbs());
            rep.set(bpn_name, bpn);
            rep.set(roof, roof_of(c));
        }
        rep.set("core.kernel.sell8.t1_gbs", head_t1.gbs());
        rep.set("core.spmm.k8.gbs", spmm.gbs());
        rep.set("core.spmm.k8.bytes_per_rhs", spmm.bytes as f64 / 8.0);
        rep.set("core.exec.dispatch_ns", dispatch);
        rep.set("core.kernel.small.apply_us", small.secs * 1e6);
        let nodes = trace::analyze(trace::drain());
        let (mut in_apply, mut in_cell) = (0.0, 0.0);
        for n in &nodes {
            match n.rec.name {
                trace::MATMULT => in_apply += n.rec.secs(),
                trace::CELL => in_cell += n.rec.secs(),
                _ => {}
            }
        }
        rep.set("trace.unattributed_frac", 1.0 - in_apply / in_cell);
        rep.set(
            "trace.overhead_frac",
            head_t1.secs / median(&plain_headline) - 1.0,
        );
        rep.spans = nodes;
    }
    rep.stamp = Some(host::Stamp::take(nproc, DRAM_BYTES));
}

/// Metric names of one format's kernel figures.
fn kernel_names(fmt: &str) -> (&'static str, &'static str, &'static str) {
    match fmt {
        "csr" => (
            "core.kernel.csr.gbs",
            "core.kernel.csr.bytes_per_nnz",
            "core.kernel.csr.roof_frac",
        ),
        "sell8" => (
            "core.kernel.sell8.gbs",
            "core.kernel.sell8.bytes_per_nnz",
            "core.kernel.sell8.roof_frac",
        ),
        "sell8_sigma32" => (
            "core.kernel.sell8_sigma32.gbs",
            "core.kernel.sell8_sigma32.bytes_per_nnz",
            "core.kernel.sell8_sigma32.roof_frac",
        ),
        "sell8_f32" => (
            "core.kernel.sell8_f32.gbs",
            "core.kernel.sell8_f32.bytes_per_nnz",
            "core.kernel.sell8_f32.roof_frac",
        ),
        "sell8_bf16" => (
            "core.kernel.sell8_bf16.gbs",
            "core.kernel.sell8_bf16.bytes_per_nnz",
            "core.kernel.sell8_bf16.roof_frac",
        ),
        _ => unreachable!("format table and names agree"),
    }
}
