//! Outside-in tracing for the traced run.
//!
//! Nothing here reaches inside sellkit: every span is taken by a wrapper
//! around a public entry point of one layer — a [`Timed`] format, a
//! [`TimedPc`] preconditioner, a [`TimedOde`] problem — or by the
//! workload code around a call it makes itself.  Spans stay in memory
//! until the run ends; [`analyze`] then nests them by time on each thread
//! and derives self times.
//!
//! Newton's `SNESJacobianEval` and its linear solve have no public
//! boundary, so two spans are synthesized from the wrappers' timestamps:
//! the Jacobian evaluation runs from `rhs_jacobian` entry to the end of
//! the fine-level `from_csr`, and the linear solve from there to Newton's
//! next function evaluation.  The `identity_plus_scaled` shift is the gap
//! between `rhs_jacobian` returning and the PC factory being entered.

use std::cell::Cell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use sellkit_check::{Validate, Violation};
use sellkit_core::{Apply, Csr, ExecCtx, FromCsr, MatShape, Operator, VecView, VecViewMut};
use sellkit_solvers::pc::Precond;
use sellkit_solvers::ts::OdeProblem;

/// A MatMult through a [`Timed`] format (`arg` = rows, `k` = block width).
pub const MATMULT: &str = "core.matmult";
/// A `FromCsr` conversion (`arg` = rows).
pub const CONVERT: &str = "core.convert";
/// Jacobian assembly (`OdeProblem::rhs_jacobian`).
pub const ASSEMBLE: &str = "workloads.assemble";
/// Right-hand side evaluation (`arg` = 1 inside Newton, 0 for the
/// θ-scheme's explicit part).
pub const RHS: &str = "workloads.rhs";
/// The `I − Δtθ·J` shift between assembly and PC set-up (synthesized).
pub const SHIFT: &str = "core.matops.shift";
/// Multigrid set-up inside the PC factory.
pub const PC_SETUP: &str = "pc.mg.setup";
/// One preconditioner application.
pub const PC_APPLY: &str = "pc.mg.apply";
/// Newton's Jacobian evaluation (synthesized).
pub const JACOBIAN: &str = "snes.jacobian_eval";
/// Newton's linear solve (synthesized).
pub const KSP: &str = "ksp.solve";
/// One Crank–Nicolson step.
pub const STEP: &str = "ts.step";
/// One `Server::submit`.
pub const SUBMIT: &str = "serve.submit";
/// One ticket resolved by `Ticket::try_take`, with the check of its reply.
pub const RESOLVE: &str = "serve.resolve";
/// One measured cell of the kernel sweep.
pub const CELL: &str = "spmv.cell";

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    /// Span kind, one of the constants above.
    pub name: &'static str,
    /// Recording thread (dense ids in order of first use).
    pub thread: u32,
    /// Start, ns since the trace epoch.
    pub t0: u64,
    /// End, ns since the trace epoch.
    pub t1: u64,
    /// Kind-specific argument (rows, or a tag).
    pub arg: u64,
    /// Block width of a MatMult.
    pub k: u32,
    /// Modeled §6 bytes of a MatMult.
    pub bytes: u64,
    /// Whether a MatMult ran on a serial context.
    pub serial: bool,
}

impl Rec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.t1 - self.t0) as f64 * 1e-9
    }
}

static SPANS: Mutex<Vec<Rec>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static MARKS: Cell<Marks> = const { Cell::new(Marks::new()) };
}

/// Timestamps the Newton-side synthesized spans are built from.
#[derive(Clone, Copy)]
struct Marks {
    assemble_t0: Option<u64>,
    assemble_t1: Option<u64>,
    ksp_t0: Option<u64>,
    in_pc_setup: bool,
    explicit_pending: bool,
}

impl Marks {
    const fn new() -> Self {
        Self {
            assemble_t0: None,
            assemble_t1: None,
            ksp_t0: None,
            in_pc_setup: false,
            explicit_pending: false,
        }
    }
}

fn marks<R>(f: impl FnOnce(&mut Marks) -> R) -> R {
    MARKS.with(|c| {
        let mut m = c.get();
        let r = f(&mut m);
        c.set(m);
        r
    })
}

/// Nanoseconds since the trace epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records a closed span `[t0, t1]` named `name` on the calling thread.
pub fn record(name: &'static str, t0: u64, t1: u64, arg: u64) {
    push(Rec {
        name,
        thread: THREAD.with(|t| *t),
        t0,
        t1,
        arg,
        k: 0,
        bytes: 0,
        serial: false,
    });
}

fn push(rec: Rec) {
    SPANS.lock().expect("span store poisoned").push(rec);
}

/// Takes every span recorded so far, leaving the store empty.
pub fn drain() -> Vec<Rec> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Marks the start of a θ-step: the next right-hand side evaluation is the
/// step's explicit part, not a Newton function evaluation.
pub fn begin_step() {
    marks(|m| {
        *m = Marks::new();
        m.explicit_pending = true;
    });
}

/// A sparse format whose products and conversions are timed.
pub struct Timed<M>(pub M);

impl<M: MatShape> MatShape for Timed<M> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
}

impl<M: Operator> Operator for Timed<M> {
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        let k = x.k();
        let t0 = now_ns();
        self.0.apply(ctx, x, y, mode);
        let t1 = now_ns();
        push(Rec {
            name: MATMULT,
            thread: THREAD.with(|t| *t),
            t0,
            t1,
            arg: self.0.nrows() as u64,
            k: k as u32,
            bytes: self.0.spmm_traffic(k).bytes,
            serial: ctx.is_serial(),
        });
    }
    fn spmv_flops(&self) -> u64 {
        self.0.spmv_flops()
    }
    fn spmv_traffic(&self) -> sellkit_core::traffic::TrafficEstimate {
        self.0.spmv_traffic()
    }
    fn matrix_bytes(&self) -> u64 {
        self.0.matrix_bytes()
    }
    fn spmm_flops(&self, k: usize) -> u64 {
        self.0.spmm_flops(k)
    }
    fn spmm_traffic(&self, k: usize) -> sellkit_core::traffic::TrafficEstimate {
        self.0.spmm_traffic(k)
    }
}

impl<M: FromCsr> FromCsr for Timed<M> {
    fn from_csr(csr: &Csr) -> Self {
        let t0 = now_ns();
        let m = M::from_csr(csr);
        let t1 = now_ns();
        record(CONVERT, t0, t1, csr.nrows() as u64);
        // Outside PC set-up, this is Newton's fine-level MatConvert: the
        // last step of the Jacobian evaluation, followed by the solve.
        let jac_t0 = marks(|mk| {
            if mk.in_pc_setup {
                None
            } else {
                mk.ksp_t0 = Some(t1);
                mk.assemble_t0.take()
            }
        });
        if let Some(a0) = jac_t0 {
            record(JACOBIAN, a0, t1, 0);
        }
        Timed(m)
    }
}

impl<M: Validate> Validate for Timed<M> {
    fn validate(&self) -> Result<(), Vec<Violation>> {
        self.0.validate()
    }
}

/// A preconditioner whose applications are timed.
pub struct TimedPc<P>(P);

/// Runs the PC factory `build` as a timed set-up span and wraps its
/// result; the gap since the last assembly is recorded as the shift.
pub fn timed_pc_setup<P>(build: impl FnOnce() -> P) -> TimedPc<P> {
    let t0 = now_ns();
    if let Some(a1) = marks(|m| {
        m.in_pc_setup = true;
        m.assemble_t1.take()
    }) {
        record(SHIFT, a1, t0, 0);
    }
    let pc = build();
    marks(|m| m.in_pc_setup = false);
    record(PC_SETUP, t0, now_ns(), 0);
    TimedPc(pc)
}

impl<P: Precond> Precond for TimedPc<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t0 = now_ns();
        self.0.apply(r, z);
        record(PC_APPLY, t0, now_ns(), r.len() as u64);
    }
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        let t0 = now_ns();
        self.0.apply_ctx(ctx, r, z);
        record(PC_APPLY, t0, now_ns(), r.len() as u64);
    }
}

/// An ODE problem whose function and Jacobian evaluations are timed.
pub struct TimedOde<P>(pub P);

impl<P: OdeProblem> OdeProblem for TimedOde<P> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn rhs(&self, t: f64, u: &[f64], f: &mut [f64]) {
        let t0 = now_ns();
        let (ksp_t0, explicit) = marks(|m| {
            let e = m.explicit_pending;
            m.explicit_pending = false;
            (m.ksp_t0.take(), e)
        });
        if let Some(k0) = ksp_t0 {
            record(KSP, k0, t0, 0);
        }
        self.0.rhs(t, u, f);
        record(RHS, t0, now_ns(), u64::from(!explicit));
    }

    fn rhs_jacobian(&self, t: f64, u: &[f64]) -> Csr {
        let t0 = now_ns();
        let j = self.0.rhs_jacobian(t, u);
        let t1 = now_ns();
        record(ASSEMBLE, t0, t1, j.nnz() as u64);
        marks(|m| {
            m.assemble_t0 = Some(t0);
            m.assemble_t1 = Some(t1);
        });
        j
    }
}

/// A span with its place in the per-thread nesting.
pub struct Node {
    /// The span.
    pub rec: Rec,
    /// Index of the innermost enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Node {
    /// Self time in seconds: duration minus the part children cover.
    pub fn self_secs(&self) -> f64 {
        (self.rec.t1 - self.rec.t0).saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

/// Nests spans by time containment on each thread.
pub fn analyze(mut recs: Vec<Rec>) -> Vec<Node> {
    recs.sort_by(|a, b| (a.thread, a.t0, b.t1).cmp(&(b.thread, b.t0, a.t1)));
    let mut nodes: Vec<Node> = Vec::with_capacity(recs.len());
    let mut stack: Vec<usize> = Vec::new();
    for rec in recs {
        while let Some(&top) = stack.last() {
            let t = &nodes[top].rec;
            if t.thread == rec.thread && rec.t1 <= t.t1 {
                break;
            }
            stack.pop();
        }
        let parent = stack.last().copied();
        let i = nodes.len();
        if let Some(p) = parent {
            nodes[p].child_ns += rec.t1 - rec.t0;
        }
        nodes.push(Node {
            rec,
            parent,
            child_ns: 0,
        });
        stack.push(i);
    }
    nodes
}

/// Whether any enclosing span of `nodes[i]` is named `name`.
pub fn inside(nodes: &[Node], i: usize, name: &str) -> bool {
    let mut p = nodes[i].parent;
    while let Some(j) = p {
        if nodes[j].rec.name == name {
            return true;
        }
        p = nodes[j].parent;
    }
    false
}

/// Writes the spans as tab-separated lines to `path`.
pub fn write_spans(path: &std::path::Path, nodes: &[Node]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "name\tthread\tt0_ns\tt1_ns\targ\tk\tbytes\tserial\tparent"
    )?;
    for n in nodes {
        let r = &n.rec;
        let parent = n.parent.map_or(-1, |p| p as i64);
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{parent}",
            r.name, r.thread, r.t0, r.t1, r.arg, r.k, r.bytes, r.serial
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, t0: u64, t1: u64) -> Rec {
        Rec {
            name,
            thread: 0,
            t0,
            t1,
            arg: 0,
            k: 0,
            bytes: 0,
            serial: false,
        }
    }

    #[test]
    fn nesting_and_self_time() {
        let nodes = analyze(vec![
            rec(MATMULT, 12, 15),
            rec(STEP, 0, 100),
            rec(KSP, 10, 40),
            rec(PC_APPLY, 20, 30),
            rec(MATMULT, 22, 25),
            rec(RHS, 40, 50),
        ]);
        let by = |name, t0| {
            nodes
                .iter()
                .position(|n| n.rec.name == name && n.rec.t0 == t0)
                .unwrap()
        };
        let step = by(STEP, 0);
        assert_eq!(nodes[step].child_ns, 40);
        assert_eq!(nodes[by(KSP, 10)].child_ns, 13);
        assert_eq!(nodes[by(RHS, 40)].parent, Some(step));
        assert!(inside(&nodes, by(MATMULT, 22), PC_APPLY));
        assert!(!inside(&nodes, by(MATMULT, 12), PC_APPLY));
    }
}
