//! Newton's setup reuse: after the first iteration of a solve, a Jacobian
//! with the kept pattern refreshes the preconditioner and the operator in
//! place.  That must change nothing but the time: states and iteration
//! counts are bitwise those of a rebuild at every iteration.

use std::cell::Cell;

use sellkit::core::{
    Apply, CooBuilder, Csr, ExecCtx, FromCsr, MatShape, Operator, Sell8, SellSigma8, VecView,
    VecViewMut,
};
use sellkit::grid::interpolation_chain;
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit::solvers::pc::{JacobiPc, Precond};
use sellkit::solvers::snes::{newton, newton_ctx, NewtonConfig, NonlinearProblem};
use sellkit::solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};

/// A preconditioner that keeps the default `refresh`, so Newton calls the
/// factory again at every iteration.
struct Rebuilt<P>(P);

impl<P: Precond> Precond for Rebuilt<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z);
    }
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        self.0.apply_ctx(ctx, r, z);
    }
}

/// An operator that keeps the default `set_values_from_csr`, so every
/// value update is a fresh conversion.
struct RebuiltOp<M>(M);

impl<M: MatShape> MatShape for RebuiltOp<M> {
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

impl<M: Operator> Operator for RebuiltOp<M> {
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        self.0.apply(ctx, x, y, mode);
    }
}

impl<M: FromCsr> FromCsr for RebuiltOp<M> {
    fn from_csr(csr: &Csr) -> Self {
        Self(M::from_csr(csr))
    }
}

fn cn_config() -> ThetaConfig {
    ThetaConfig {
        theta: 0.5,
        dt: 1.0,
        newton: NewtonConfig {
            rtol: 1e-8,
            ksp: KspConfig {
                rtol: 1e-5,
                restart: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// Final state bits and per-step (Newton, GMRES) counts of 3 CN steps on
/// the 32² Gray-Scott system, with the Newton PC built by `pc`.
fn gray_scott_run<M, Pc>(
    threads: usize,
    pc: impl Fn(&Csr, &[Csr]) -> Pc,
) -> (Vec<u64>, Vec<(usize, usize)>)
where
    M: Operator + FromCsr,
    Pc: Precond,
{
    let gs = GrayScott::new(32, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    let ctx = ExecCtx::new(threads);
    let mut u = gs.initial_condition(3);
    let mut ts = ThetaStepper::new(cn_config());
    let mut its = Vec::new();
    for _ in 0..3 {
        let res = ts.step_ctx::<M, _, _>(&gs, &mut u, &ctx, |j| pc(j, &interps));
        assert!(res.converged(), "{:?}", res.reason);
        its.push((res.iterations, res.linear_iterations));
    }
    (u.iter().map(|v| v.to_bits()).collect(), its)
}

fn refresh_matches_rebuild<M: Operator + FromCsr>(threads: usize, cfg: MultigridConfig) {
    let reused = gray_scott_run::<M, _>(threads, |j, p| Multigrid::<M>::new(j, p, cfg));
    let rebuilt = gray_scott_run::<RebuiltOp<M>, _>(threads, |j, p| {
        Rebuilt(Multigrid::<RebuiltOp<M>>::new(j, p, cfg))
    });
    assert_eq!(reused.1, rebuilt.1, "iteration counts");
    assert!(
        reused.1.iter().all(|&(newton, _)| newton >= 2),
        "the refresh path must run: {:?}",
        reused.1
    );
    assert!(reused.0 == rebuilt.0, "states differ bitwise");
}

fn paper_mg() -> MultigridConfig {
    MultigridConfig {
        coarse: CoarseSolve::Jacobi(8),
        ..Default::default()
    }
}

#[test]
fn csr_refresh_matches_rebuild() {
    for threads in [1, 2] {
        refresh_matches_rebuild::<Csr>(threads, paper_mg());
    }
}

#[test]
fn sell8_refresh_matches_rebuild() {
    for threads in [1, 2] {
        refresh_matches_rebuild::<Sell8>(threads, paper_mg());
    }
}

#[test]
fn sell8_sigma_refresh_matches_rebuild() {
    for threads in [1, 2] {
        refresh_matches_rebuild::<SellSigma8>(threads, paper_mg());
    }
}

#[test]
fn thread_count_does_not_change_the_reused_trajectory() {
    let one = gray_scott_run::<Sell8, _>(1, |j, p| Multigrid::<Sell8>::new(j, p, paper_mg()));
    let two = gray_scott_run::<Sell8, _>(2, |j, p| Multigrid::<Sell8>::new(j, p, paper_mg()));
    assert_eq!(one.1, two.1);
    assert!(one.0 == two.0, "states differ bitwise across thread counts");
}

/// One Crank–Nicolson stage of the Gray-Scott system as a plain
/// `NonlinearProblem`: `G(u) = u − c − Δtθ·f(u)`, `G' = I − Δtθ·J_f`.
struct CnStage<'a> {
    gs: &'a GrayScott,
    explicit: Vec<f64>,
    dt_theta: f64,
}

impl NonlinearProblem for CnStage<'_> {
    fn dim(&self) -> usize {
        self.gs.dim()
    }
    fn residual(&self, u: &[f64], g: &mut [f64]) {
        self.gs.rhs(1.0, u, g);
        for i in 0..u.len() {
            g[i] = u[i] - self.explicit[i] - self.dt_theta * g[i];
        }
    }
    fn jacobian(&self, u: &[f64]) -> Csr {
        let jf = self.gs.rhs_jacobian(1.0, u);
        sellkit::core::matops::identity_plus_scaled(1.0, -self.dt_theta, &jf)
    }
}

/// Newton with setup reuse against an independent reference: the same
/// number of one-iteration Newton solves, each of which builds its setup
/// from scratch.  Both must produce bitwise the same iterate.
fn reuse_matches_restarts<M: Operator + FromCsr>(threads: usize) {
    let gs = GrayScott::new(32, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    let u0 = gs.initial_condition(5);
    let mut f0 = vec![0.0; u0.len()];
    gs.rhs(0.0, &u0, &mut f0);
    let stage = CnStage {
        gs: &gs,
        explicit: u0.iter().zip(&f0).map(|(u, f)| u + 0.5 * f).collect(),
        dt_theta: 0.5,
    };
    let ctx = ExecCtx::new(threads);
    let cfg = cn_config().newton;
    let pc = |j: &Csr| Multigrid::<M>::new(j, &interps, paper_mg());

    let mut reused = u0.clone();
    let res = newton_ctx::<M, _, _>(&stage, &mut reused, &cfg, &ctx, pc);
    assert!(res.converged() && res.iterations >= 2, "{res:?}");

    let mut restarted = u0.clone();
    let one = NewtonConfig { max_it: 1, ..cfg };
    for _ in 0..res.iterations {
        newton_ctx::<M, _, _>(&stage, &mut restarted, &one, &ctx, pc);
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(bits(&reused) == bits(&restarted), "iterates differ bitwise");
}

#[test]
fn reuse_matches_one_iteration_restarts() {
    for threads in [1, 2] {
        reuse_matches_restarts::<Csr>(threads);
        reuse_matches_restarts::<Sell8>(threads);
        reuse_matches_restarts::<SellSigma8>(threads);
    }
}

/// `F(x)_i = x_i³ + 2·x_i − x_{i−1}/2 − b_i`, whose Jacobian pattern
/// changes between evaluations: every other one also stores the
/// superdiagonal, as explicit zeros.
struct ShiftingPattern {
    b: Vec<f64>,
    evals: Cell<usize>,
}

impl NonlinearProblem for ShiftingPattern {
    fn dim(&self) -> usize {
        self.b.len()
    }
    fn residual(&self, x: &[f64], f: &mut [f64]) {
        let n = x.len();
        for i in 0..n {
            let left = if i > 0 { x[i - 1] } else { 0.0 };
            f[i] = x[i] * x[i] * x[i] + 2.0 * x[i] - 0.5 * left - self.b[i];
        }
    }
    fn jacobian(&self, x: &[f64]) -> Csr {
        let n = x.len();
        let k = self.evals.get();
        self.evals.set(k + 1);
        let mut b = CooBuilder::new(n, n);
        for (i, &xi) in x.iter().enumerate() {
            b.push(i, i, 3.0 * xi * xi + 2.0);
            if i > 0 {
                b.push(i, i - 1, -0.5);
            }
            if k % 2 == 1 && i + 1 < n {
                b.push(i, i + 1, 0.0);
            }
        }
        b.to_csr()
    }
}

#[test]
fn changed_pattern_takes_the_rebuild_path() {
    let n = 30;
    let problem = || ShiftingPattern {
        b: (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect(),
        evals: Cell::new(0),
    };
    let cfg = NewtonConfig {
        rtol: 1e-12,
        ..Default::default()
    };

    let builds = Cell::new(0usize);
    let p = problem();
    let mut x = vec![0.1; n];
    let res = newton::<Sell8, _, _>(&p, &mut x, &cfg, |j| {
        builds.set(builds.get() + 1);
        JacobiPc::from_csr(j)
    });
    assert!(res.converged() && res.iterations >= 3, "{res:?}");
    assert_eq!(
        builds.get(),
        res.iterations,
        "a changed pattern must rebuild even a refreshable PC"
    );

    let p = problem();
    let mut y = vec![0.1; n];
    let always =
        newton::<RebuiltOp<Sell8>, _, _>(&p, &mut y, &cfg, |j| Rebuilt(JacobiPc::from_csr(j)));
    assert_eq!(res.iterations, always.iterations);
    assert_eq!(res.linear_iterations, always.linear_iterations);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&x), bits(&y));
}

#[test]
fn kept_pattern_builds_the_pc_once_per_solve() {
    let gs = GrayScott::new(16, GrayScottParams::default());
    let builds = Cell::new(0usize);
    let mut u = gs.initial_condition(1);
    let mut ts = ThetaStepper::new(cn_config());
    let res = ts.step::<Sell8, _, _>(&gs, &mut u, |j| {
        builds.set(builds.get() + 1);
        JacobiPc::from_csr(j)
    });
    assert!(res.converged() && res.iterations >= 2, "{res:?}");
    assert_eq!(builds.get(), 1);
}
