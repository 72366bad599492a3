//! `gs_cn_256`: the paper's §7 stack end to end.
//!
//! 256² periodic Gray-Scott, Crank–Nicolson with Δt = 1, Newton (rtol
//! 1e-8) around GMRES(30) (rtol 1e-5) preconditioned by a 3-level
//! Galerkin V-cycle with Jacobi smoothers and a Jacobi(8) coarse solve,
//! every operator in SELL-8, on an `nproc`-lane context.  The seed picks
//! the initial condition's noise.
//!
//! The timed work is a sequence of episodes, each [`EPISODE`] CN steps
//! from the seeded initial condition, so every run solves the same
//! systems however many episodes fit in the window.  The traced run
//! alternates plain and wrapped episodes; the difference between their
//! median step times is the tracing overhead.

use std::time::Instant;

use sellkit_core::{Csr, ExecCtx, Sell8};
use sellkit_grid::interpolation_chain;
use sellkit_solvers::ksp::KspConfig;
use sellkit_solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit_solvers::snes::{NewtonConfig, NewtonResult};
use sellkit_solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
use sellkit_workloads::{GrayScott, GrayScottParams};

use crate::stats::{mean, median};
use crate::trace::{self, Timed, TimedOde};
use crate::{host, Args, Report};

const GRID: usize = 256;
const MG_LEVELS: usize = 3;
const EPISODE: usize = 3;
const SETUP_REPS: usize = 15;

fn theta_config() -> ThetaConfig {
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

fn mg_config() -> MultigridConfig {
    MultigridConfig {
        coarse: CoarseSolve::Jacobi(8),
        ..Default::default()
    }
}

/// Everything a run builds before its first step.
struct Problem {
    gs: GrayScott,
    u0: Vec<f64>,
    interps: Vec<Csr>,
    ctx: ExecCtx,
}

fn set_up(seed: u64, nproc: usize) -> Problem {
    let gs = GrayScott::new(GRID, GrayScottParams::default());
    let u0 = gs.initial_condition(seed);
    let interps = interpolation_chain(gs.grid(), MG_LEVELS);
    Problem {
        gs,
        u0,
        interps,
        ctx: ExecCtx::new(nproc),
    }
}

/// One CN step with plain sellkit types.
fn step_plain(p: &Problem, ts: &mut ThetaStepper, u: &mut [f64]) -> NewtonResult {
    ts.step_ctx::<Sell8, _, _>(&p.gs, u, &p.ctx, |j| {
        Multigrid::<Sell8>::new(j, &p.interps, mg_config())
    })
}

/// One CN step with every layer boundary wrapped.
fn step_traced(
    p: &Problem,
    ode: &TimedOde<GrayScott>,
    ts: &mut ThetaStepper,
    u: &mut [f64],
) -> NewtonResult {
    trace::begin_step();
    let t0 = trace::now_ns();
    let res = ts.step_ctx::<Timed<Sell8>, _, _>(ode, u, &p.ctx, |j| {
        trace::timed_pc_setup(|| Multigrid::<Timed<Sell8>>::new(j, &p.interps, mg_config()))
    });
    trace::record(trace::STEP, t0, trace::now_ns(), 0);
    res
}

/// Checks a CN step from outside: recomputes
/// `G(uₙ₊₁) = uₙ₊₁ − uₙ − Δt·[θ·f(uₙ₊₁) + (1−θ)·f(uₙ)]` with
/// `OdeProblem::rhs` and holds it to Newton's relative tolerance against
/// `‖G(uₙ)‖ = Δt·‖f(uₙ)‖`, the residual Newton started from.
fn cn_residual_ok(gs: &GrayScott, t: f64, u_n: &[f64], u_next: &[f64]) -> (bool, f64, f64) {
    let cfg = theta_config();
    let (dt, theta) = (cfg.dt, cfg.theta);
    let n = u_n.len();
    let mut f_n = vec![0.0; n];
    let mut f_next = vec![0.0; n];
    gs.rhs(t, u_n, &mut f_n);
    gs.rhs(t + dt, u_next, &mut f_next);
    let mut g2 = 0.0;
    let mut g0 = 0.0;
    for i in 0..n {
        let g = u_next[i] - u_n[i] - dt * (theta * f_next[i] + (1.0 - theta) * f_n[i]);
        g2 += g * g;
        g0 += (dt * f_n[i]) * (dt * f_n[i]);
    }
    let (g, g0) = (g2.sqrt(), g0.sqrt());
    // 1% slack covers the different rounding of this recomputation.
    (g <= 1.01 * cfg.newton.rtol * g0, g, g0)
}

/// Per-step statistics of one kind of episode.
#[derive(Default)]
struct Steps {
    secs: Vec<f64>,
    newton_its: usize,
    gmres_its: usize,
}

pub fn run(args: &Args, rep: &mut Report) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut prob = None;
    for _ in 0..SETUP_REPS {
        drop(prob.take());
        let t = Instant::now();
        prob = Some(set_up(args.seed, args.nproc));
        setup.push(t.elapsed().as_secs_f64());
    }
    let p = prob.expect("SETUP_REPS > 0");
    let ode = TimedOde(p.gs.clone());

    // Warm-up step: pool threads, allocator and page mappings settle.
    {
        let mut u = p.u0.clone();
        let mut ts = ThetaStepper::new(theta_config());
        let res = step_plain(&p, &mut ts, &mut u);
        rep.check(res.converged(), || "warm-up step did not converge".into());
    }

    let mut plain = Steps::default();
    let mut traced = Steps::default();
    let t_start = Instant::now();
    let mut episode = 0usize;
    while t_start.elapsed().as_secs_f64() < args.seconds
        || plain.secs.is_empty()
        || (args.trace && traced.secs.is_empty())
    {
        let wrapped = args.trace && episode % 2 == 1;
        let mut u = p.u0.clone();
        let mut ts = ThetaStepper::new(theta_config());
        for s in 0..EPISODE {
            let u_n = u.clone();
            let t_n = ts.time();
            let t = Instant::now();
            let res = if wrapped {
                step_traced(&p, &ode, &mut ts, &mut u)
            } else {
                step_plain(&p, &mut ts, &mut u)
            };
            let dt = t.elapsed().as_secs_f64();
            let (ok, g, g0) = cn_residual_ok(&p.gs, t_n, &u_n, &u);
            rep.check(res.converged() && ok, || {
                format!(
                    "episode {episode} step {s}: newton {:?}, |G| = {g:e} vs rtol*|G0| = {:e}",
                    res.reason,
                    theta_config().newton.rtol * g0
                )
            });
            let st = if wrapped { &mut traced } else { &mut plain };
            st.secs.push(dt);
            st.newton_its += res.iterations;
            st.gmres_its += res.linear_iterations;
        }
        episode += 1;
    }

    let rss = host::peak_rss_mb();
    let solve_s: f64 = plain.secs.iter().sum();
    let step_ms = 1e3 * median(&plain.secs);
    rep.set("setup_s", median(&setup));
    rep.set("latency_ms", step_ms);
    rep.set("throughput_per_s", plain.secs.len() as f64 / solve_s);
    rep.set("rss_mb", rss);
    rep.line(format!(
        "solve_s {solve_s} s ({} CN steps at {GRID}x{GRID}, median step {step_ms} ms, \
         newton {} its, gmres {} its)",
        plain.secs.len(),
        plain.newton_its,
        plain.gmres_its
    ));

    if args.trace {
        layer_metrics(rep, &traced, 2 * GRID * GRID);
        let overhead = median(&traced.secs) / median(&plain.secs) - 1.0;
        rep.set("trace.overhead_frac", overhead);
    }
    rep.stamp = Some(host::Stamp::take(args.nproc, crate::spmv::DRAM_BYTES));
}

/// Per-step layer metrics from the traced episodes' spans.
fn layer_metrics(rep: &mut Report, steps: &Steps, n_fine: usize) {
    let nodes = trace::analyze(trace::drain());
    let nsteps = steps.secs.len().max(1) as f64;
    let mut acc = std::collections::BTreeMap::<&'static str, f64>::new();
    let mut add = |k: &'static str, v: f64| *acc.entry(k).or_insert(0.0) += v;
    let mut level = [(0.0, 0.0f64); MG_LEVELS];
    let (mut fine_s, mut fine_bytes, mut mm_s, mut mm_serial_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut step_s, mut step_self) = (0.0, 0.0);
    for (i, n) in nodes.iter().enumerate() {
        let r = &n.rec;
        match r.name {
            trace::ASSEMBLE => {
                add("workloads.assemble_s", r.secs());
                add("workloads.assemble_calls", 1.0);
            }
            trace::RHS => {
                add("workloads.rhs_s", r.secs());
                if r.arg == 1 {
                    add("snes.function_eval_s", r.secs());
                }
            }
            trace::SHIFT => add("core.matops.shift_s", r.secs()),
            trace::PC_SETUP => {
                add("pc.mg.setup_s", r.secs());
                add("pc.mg.rap_s", n.self_secs());
            }
            trace::CONVERT => {
                if trace::inside(&nodes, i, trace::PC_SETUP) {
                    add("core.convert.mg_s", r.secs());
                } else {
                    add("core.convert.fine_s", r.secs());
                }
            }
            trace::JACOBIAN => add("snes.jacobian_eval_s", r.secs()),
            trace::KSP => {
                add("ksp.solve_s", r.secs());
                add("ksp.vecops_s", n.self_secs());
            }
            trace::PC_APPLY => {
                add("pc.mg.apply_s", r.secs());
                add("pc.mg.apply_self_s", n.self_secs());
            }
            trace::MATMULT => {
                mm_s += r.secs();
                if r.serial {
                    mm_serial_s += r.secs();
                }
                if trace::inside(&nodes, i, trace::PC_APPLY) {
                    let l = (0..MG_LEVELS)
                        .find(|&l| r.arg as usize == n_fine >> (2 * l))
                        .unwrap_or(MG_LEVELS - 1);
                    level[l].0 += r.secs();
                    level[l].1 += r.bytes as f64;
                } else {
                    fine_s += r.secs();
                    fine_bytes += r.bytes as f64;
                }
            }
            trace::STEP => {
                step_s += r.secs();
                step_self += n.self_secs();
            }
            _ => {}
        }
    }
    for (k, v) in acc {
        rep.set(k, v / nsteps);
    }
    const LEVEL_NAMES: [(&str, &str); MG_LEVELS] = [
        ("pc.mg.level0.matmult_s", "pc.mg.level0.gbs"),
        ("pc.mg.level1.matmult_s", "pc.mg.level1.gbs"),
        ("pc.mg.level2.matmult_s", "pc.mg.level2.gbs"),
    ];
    for (l, (t_name, bw_name)) in LEVEL_NAMES.iter().enumerate() {
        rep.set(t_name, level[l].0 / nsteps);
        rep.set(bw_name, level[l].1 / level[l].0 / 1e9);
    }
    rep.set("core.matmult.fine_s", fine_s / nsteps);
    rep.set("core.matmult.fine_gbs", fine_bytes / fine_s / 1e9);
    rep.set("core.matmult.serial_share", mm_serial_s / mm_s);
    rep.set("snes.newton_its", steps.newton_its as f64 / nsteps);
    rep.set("ksp.gmres_its", steps.gmres_its as f64 / nsteps);
    rep.set("ts.step_s", step_s / nsteps);
    rep.set("trace.unattributed_frac", step_self / step_s);
    rep.line(format!(
        "traced: {} CN steps; mean step {} s; solve time outside every named span {} s",
        steps.secs.len(),
        mean(&steps.secs),
        step_self
    ));
    rep.spans = nodes;
}
