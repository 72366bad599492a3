//! `serve_poisson`: an open-loop load on the batching server.
//!
//! One generator thread (this one) submits on a seeded Poisson schedule
//! over four tenants of skewed popularity, so hot tenants coalesce into
//! SpMM batches while cold ones close on `max_wait`; it polls
//! `Ticket::try_take` and times each reply from the moment the request
//! was due, so a stall also delays the requests queued behind it.  The
//! server runs one worker thread.  A fixed curve of rates runs from light
//! load to the knee; capacity is measured in closed loop, which saturates
//! the worker without letting the queue, and memory, grow.  The tenants
//! are small (vectors of at most 256 KiB) so that one worker serves
//! thousands of requests per second and every percentile rests on
//! thousands of samples.  Solvers are bypassed.
//!
//! Every reply drawn in a seeded sample is checked against a direct
//! `Operator::apply` of the tenant's matrix; refusals and errors count as
//! failed and as missing the p99 limit.

use std::time::{Duration, Instant};

use sellkit_check::Validate;
use sellkit_core::{Codec, Csr, ExecCtx, MatShape, Operator, Sell, Sell8, SellSigma8};
use sellkit_serve::{ServeConfig, ServeError, Server, Ticket};
use sellkit_solvers::ts::OdeProblem;
use sellkit_workloads::{generators, GrayScott, GrayScottParams};

use crate::stats::{median, quantile};
use crate::trace::{self, Timed};
use crate::{host, Args, Report};

/// Offered rates of the latency curve, requests per second, from light
/// load to the knee.  `NOMINAL` indexes the rate the end-to-end latency is
/// taken at.
const CURVE: [f64; 7] = [500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0];
const NOMINAL: usize = 2;
/// Requests kept outstanding by the closed-loop segments that measure
/// capacity: enough to keep the worker's queue non-empty, few enough that
/// memory stays flat (an open-loop overload grows the queue without bound).
const IN_FLIGHT: usize = 64;
/// Per-layer names of the p99 curve, in `CURVE` order.
const CURVE_NAMES: [&str; 7] = [
    "serve.curve.r500.p99_ms",
    "serve.curve.r1000.p99_ms",
    "serve.curve.r1500.p99_ms",
    "serve.curve.r2000.p99_ms",
    "serve.curve.r2500.p99_ms",
    "serve.curve.r3000.p99_ms",
    "serve.curve.r3500.p99_ms",
];
/// The nominal rate and the capacity measurement run as this many short
/// segments, interleaved, so that a few seconds of host noise spoil one
/// segment's figure rather than the run's; the run reports medians.
const ROUNDS: usize = 5;
/// Time of one segment of each kind, in units of [`unit_secs`].
const CURVE_UNITS: f64 = 1.0;
const NOMINAL_UNITS: f64 = 1.0;
const CLOSED_UNITS: f64 = 0.5;

/// Seconds per unit so that the curve, the nominal segments and the
/// closed-loop segments fill the measurement window.
fn unit_secs(seconds: f64) -> f64 {
    let units = (CURVE.len() - 1) as f64 * CURVE_UNITS
        + (ROUNDS as f64 + 0.5) * NOMINAL_UNITS
        + ROUNDS as f64 * CLOSED_UNITS;
    seconds / units
}
/// p99 latency a rung must meet to count as sustained.
const P99_LIMIT_MS: f64 = 20.0;
/// Share of requests whose replies are checked.
const CHECK_EVERY: u64 = 8;
/// Pool of distinct right-hand sides per tenant.
const XS_PER_TENANT: usize = 4;
const SETUP_REPS: usize = 15;
/// σ window of the power-law tenant.
const SIGMA: usize = 32;

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_cap: 4096,
        threads: 1,
    }
}

/// Tenant popularity: hot first.
const WEIGHTS: [f64; 4] = [0.5, 0.25, 0.15, 0.10];

/// How a tenant's matrix is stored.
#[derive(Clone, Copy)]
enum Kind {
    Sell8,
    Sell8F32,
    SellSigma8,
}

impl Kind {
    fn codec(self) -> Codec {
        match self {
            Kind::Sell8F32 => Codec::F32,
            _ => Codec::F64,
        }
    }
}

struct Tenant {
    name: &'static str,
    csr: Csr,
    kind: Kind,
    xs: Vec<Vec<f64>>,
    refs: Vec<Vec<f64>>,
}

fn gs_jacobian(grid: usize, seed: u64) -> Csr {
    let gs = GrayScott::new(grid, GrayScottParams::default());
    gs.rhs_jacobian(0.0, &gs.initial_condition(seed))
}

/// Assembles the tenants' matrices and right-hand sides (inputs, not
/// set-up) and computes each reply's reference by a direct product.
fn tenants(seed: u64) -> Vec<Tenant> {
    let specs = [
        ("gs64_sell8", gs_jacobian(64, seed), Kind::Sell8),
        ("gs128_sell8", gs_jacobian(128, seed), Kind::Sell8),
        (
            "gs128_sell8_f32",
            gs_jacobian(128, seed ^ 0x5eed),
            Kind::Sell8F32,
        ),
        (
            "powerlaw_sell8_sigma",
            generators::power_law(10_000, 2, 64, 1.3, seed),
            Kind::SellSigma8,
        ),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(t, (name, csr, kind))| {
            let xs: Vec<Vec<f64>> = (0..XS_PER_TENANT)
                .map(|i| crate::spmv::seeded_vec(csr.ncols(), seed ^ ((t * 16 + i) as u64 + 1)))
                .collect();
            let op = build(&csr, kind);
            let refs = xs
                .iter()
                .map(|x| {
                    let mut y = vec![0.0; csr.nrows()];
                    op.apply(
                        &ExecCtx::serial(),
                        x.into(),
                        (&mut y).into(),
                        sellkit_core::Apply::Set,
                    );
                    y
                })
                .collect();
            Tenant {
                name,
                csr,
                kind,
                xs,
                refs,
            }
        })
        .collect()
}

fn build(csr: &Csr, kind: Kind) -> Box<dyn Operator> {
    match kind {
        Kind::Sell8 => Box::new(Sell8::from_csr(csr)),
        Kind::Sell8F32 => Box::new(Sell::<8>::from_csr_codec(csr, Codec::F32)),
        Kind::SellSigma8 => Box::new(SellSigma8::from_csr_sigma(csr, SIGMA)),
    }
}

fn register<M>(server: &Server, id: usize, m: M, traced: bool) -> Result<(), ServeError>
where
    M: Operator + Validate + Send + Sync + 'static,
{
    if traced {
        server.register(id as u64, Timed(m))
    } else {
        server.register(id as u64, m)
    }
}

/// Set-up: convert every tenant, start the server and register (which
/// validates each matrix once).
fn start(ts: &[Tenant], traced: bool) -> Server {
    let server = Server::start(config());
    for (id, t) in ts.iter().enumerate() {
        let r = match t.kind {
            Kind::Sell8 => register(&server, id, Sell8::from_csr(&t.csr), traced),
            Kind::Sell8F32 => register(
                &server,
                id,
                Sell::<8>::from_csr_codec(&t.csr, Codec::F32),
                traced,
            ),
            Kind::SellSigma8 => register(
                &server,
                id,
                SellSigma8::from_csr_sigma(&t.csr, SIGMA),
                traced,
            ),
        };
        r.expect("generated tenants validate");
    }
    server
}

/// splitmix64: the schedule's random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy)]
struct Arrival {
    due_ns: u64,
    tenant: usize,
    xi: usize,
    check: bool,
}

fn schedule(rate: f64, secs: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng(seed ^ (rate as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(draw(&mut rng, (t * 1e9) as u64));
    }
}

/// One request due at `due_ns`: a tenant by popularity, one of its
/// right-hand sides, and whether its reply is checked.
fn draw(rng: &mut Rng, due_ns: u64) -> Arrival {
    let u = rng.unit();
    let mut acc = 0.0;
    let tenant = WEIGHTS
        .iter()
        .position(|w| {
            acc += w;
            u <= acc
        })
        .unwrap_or(WEIGHTS.len() - 1);
    Arrival {
        due_ns,
        tenant,
        xi: (rng.next() % XS_PER_TENANT as u64) as usize,
        check: rng.next().is_multiple_of(CHECK_EVERY),
    }
}

struct Pending {
    ticket: Ticket,
    req: Arrival,
}

/// What one rung of the ladder measured.
#[derive(Default)]
struct Rung {
    rate: f64,
    sent: u64,
    /// Due-to-reply latency of every request; failures are +∞.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    refused: u64,
    errors: u64,
    backlog: Vec<(u64, usize)>,
    /// When each successful reply was seen, ns from the rung's start.
    done_ns: Vec<u64>,
    /// Length of the arrival schedule.
    span_ns: u64,
    /// Generator time spent polling tickets (resolutions included) and
    /// waiting for the next due time; kept as sums, not spans, since the
    /// loop runs every few microseconds.
    poll_ns: u64,
    idle_ns: u64,
    wall_s: f64,
    growing: bool,
}

impl Rung {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }
    fn sustained(&self) -> bool {
        self.p(0.99) <= P99_LIMIT_MS && !self.growing && self.refused + self.errors == 0
    }
    /// Replies per second over the last four fifths of a closed-loop
    /// segment, after its queue has filled.
    fn goodput(&self) -> f64 {
        let from = self.span_ns / 5;
        let n = self
            .done_ns
            .iter()
            .filter(|&&d| d >= from && d < self.span_ns)
            .count();
        n as f64 / ((self.span_ns - from) as f64 * 1e-9)
    }
    /// Appends another segment at the same rate.
    fn merge(&mut self, o: Rung) {
        self.sent += o.sent;
        self.latency_ms.extend(o.latency_ms);
        self.late_ms.extend(o.late_ms);
        self.submit_us.extend(o.submit_us);
        self.refused += o.refused;
        self.errors += o.errors;
        self.backlog.extend(o.backlog);
        self.wall_s += o.wall_s;
        self.poll_ns += o.poll_ns;
        self.idle_ns += o.idle_ns;
        self.growing |= o.growing;
    }
    /// Whether the queue never ran empty in the window `goodput` counts.
    fn saturated(&self) -> bool {
        let from = self.span_ns / 5;
        self.backlog.iter().filter(|b| b.0 >= from).all(|b| b.1 > 0)
    }
}

/// How requests are offered.
enum Load<'a> {
    /// Open loop: each arrival is submitted when due, whatever the backlog.
    Open(&'a [Arrival]),
    /// Closed loop: `in_flight` requests are kept outstanding for `secs`;
    /// each reply is answered with the next request drawn from `rng`.
    Closed {
        in_flight: usize,
        secs: f64,
        rng: Rng,
    },
}

/// Runs one load segment, then drains the outstanding requests.
fn run_rung(
    server: &Server,
    ts: &[Tenant],
    rate: f64,
    mut load: Load<'_>,
    traced: bool,
    rep: &mut Report,
) -> Rung {
    let span_ns = match &load {
        Load::Open(sched) => sched.last().map_or(0, |a| a.due_ns),
        Load::Closed { secs, .. } => (secs * 1e9) as u64,
    };
    let mut r = Rung {
        rate,
        span_ns,
        ..Default::default()
    };
    let start = Instant::now();
    let el = |start: Instant| start.elapsed().as_nanos() as u64;
    let mut next = 0;
    let mut pending: Vec<Pending> = Vec::new();
    let mut last_sample = 0u64;
    let mut wrong = Vec::new();
    let (mut checked, mut bad_replies) = (0u64, 0u64);
    let drain_deadline = Duration::from_secs(60);
    loop {
        let now = el(start);
        let mut due = Vec::new();
        match &mut load {
            Load::Open(sched) => {
                while next < sched.len() && sched[next].due_ns <= now {
                    due.push(sched[next]);
                    next += 1;
                }
            }
            Load::Closed { in_flight, rng, .. } => {
                if now < span_ns {
                    for _ in pending.len()..*in_flight {
                        due.push(draw(rng, now));
                    }
                }
            }
        }
        for a in due {
            let t0 = trace::now_ns();
            r.late_ms
                .push((el(start) - a.due_ns.min(el(start))) as f64 * 1e-6);
            let res = server.submit(a.tenant as u64, &ts[a.tenant].xs[a.xi]);
            let t1 = trace::now_ns();
            if traced {
                trace::record(trace::SUBMIT, t0, t1, a.tenant as u64);
            }
            r.submit_us.push((t1 - t0) as f64 * 1e-3);
            r.sent += 1;
            match res {
                Ok(ticket) => pending.push(Pending { ticket, req: a }),
                Err(ServeError::QueueFull) => {
                    r.refused += 1;
                    r.latency_ms.push(f64::INFINITY);
                }
                Err(e) => {
                    r.errors += 1;
                    r.latency_ms.push(f64::INFINITY);
                    wrong.push(format!("submit to {}: {e}", ts[a.tenant].name));
                }
            }
        }

        let p0 = trace::now_ns();
        let mut resolve = |p: Arrival, reply: Result<Vec<f64>, ServeError>| {
            let r0 = trace::now_ns();
            let done = el(start);
            match reply {
                Ok(y) => {
                    r.latency_ms.push((done - p.due_ns) as f64 * 1e-6);
                    r.done_ns.push(done);
                    if p.check {
                        checked += 1;
                        let t = &ts[p.tenant];
                        let res = crate::spmv::close(
                            &t.csr,
                            t.kind.codec(),
                            &t.xs[p.xi],
                            1,
                            &y,
                            &t.refs[p.xi],
                        );
                        if let Err(e) = res {
                            bad_replies += 1;
                            wrong.push(format!("reply from {}: {e}", t.name));
                        }
                    }
                }
                Err(e) => {
                    r.errors += 1;
                    r.latency_ms.push(f64::INFINITY);
                    wrong.push(format!("reply from {}: {e}", ts[p.tenant].name));
                }
            }
            if traced {
                trace::record(trace::RESOLVE, r0, trace::now_ns(), p.tenant as u64);
            }
        };
        // A full closed loop has nothing to submit until a reply comes
        // back: block on the oldest ticket instead of spinning over all
        // of them, which would contend with the worker for their locks.
        if let Load::Closed { in_flight, .. } = &load {
            if now < span_ns && pending.len() >= *in_flight {
                let Pending { ticket, req } = pending.remove(0);
                resolve(req, ticket.wait());
            }
        }
        pending.retain(|p| match p.ticket.try_take() {
            Some(reply) => {
                resolve(p.req, reply);
                false
            }
            None => true,
        });
        r.poll_ns += trace::now_ns() - p0;

        let now = el(start);
        if now < span_ns && now - last_sample >= 1_000_000 {
            r.backlog.push((now, server.queue_depth()));
            last_sample = now;
        }
        let submitting = match &load {
            Load::Open(sched) => next < sched.len(),
            Load::Closed { .. } => now < span_ns,
        };
        if !submitting {
            if pending.is_empty() {
                break;
            }
            if start.elapsed() > drain_deadline {
                for p in pending.drain(..) {
                    r.errors += 1;
                    r.latency_ms.push(f64::INFINITY);
                    wrong.push(format!("no reply from {}", ts[p.req.tenant].name));
                }
                break;
            }
        }
        // Spin instead of sleeping: a sleeping vCPU can take milliseconds
        // to be scheduled again on a busy host, which would read as
        // generator lateness.  Replies are polled at least every 50 µs.
        let idle_ns = match &load {
            Load::Open(sched) => sched.get(next).map_or(0, |a| a.due_ns.saturating_sub(now)),
            Load::Closed { .. } => 0,
        };
        if idle_ns > 0 {
            let i0 = trace::now_ns();
            let until = now + idle_ns.min(50_000);
            while el(start) < until {
                std::hint::spin_loop();
            }
            r.idle_ns += trace::now_ns() - i0;
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    rep.attempted += r.sent + checked;
    rep.failed += r.refused + r.errors + bad_replies;
    rep.wrong.extend(wrong);
    r.growing = growing(&r.backlog);
    r
}

/// A backlog grows when the last quarter of the rung queues clearly
/// deeper than the second quarter did.
fn growing(samples: &[(u64, usize)]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[(u64, usize)]| s.iter().map(|x| x.1 as f64).sum::<f64>() / s.len() as f64;
    mean(&samples[3 * q..]) > 2.0 * mean(&samples[q..2 * q]) + f64::from(config().max_batch as u32)
}

/// Highest sustained rate: the top rung that met the limit, refined by
/// log-linear interpolation of p99 toward the first rung that missed it.
fn max_rate(rungs: &[Rung]) -> f64 {
    let Some(best) = rungs.iter().rposition(Rung::sustained) else {
        return rungs[0].rate * P99_LIMIT_MS / rungs[0].p(0.99).max(P99_LIMIT_MS);
    };
    let Some(next) = rungs.get(best + 1) else {
        return rungs[best].rate;
    };
    let (p0, p1) = (rungs[best].p(0.99), next.p(0.99));
    if !p1.is_finite() || p1 <= p0 || next.refused + next.errors > 0 {
        return rungs[best].rate;
    }
    let f = ((P99_LIMIT_MS / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0);
    rungs[best].rate * (next.rate / rungs[best].rate).powf(f)
}

/// Everything one pass over the load measured.
struct Pass {
    /// One rung per `CURVE` rate; the nominal one pools its segments.
    curve: Vec<Rung>,
    /// Median latency of each nominal segment.
    nominal_p50: Vec<f64>,
    /// The closed-loop capacity segments.
    closed: Vec<Rung>,
}

/// Runs the nominal segments and closed-loop segments in `ROUNDS` rounds, with
/// the other curve rates spread over the rounds.
fn pass(server: &Server, ts: &[Tenant], args: &Args, traced: bool, rep: &mut Report) -> Pass {
    let unit = unit_secs(args.seconds);
    let mut curve: Vec<Option<Rung>> = CURVE.iter().map(|_| None).collect();
    let mut nominal = Rung {
        rate: CURVE[NOMINAL],
        ..Default::default()
    };
    let mut nominal_p50 = Vec::new();
    let mut closed_runs = Vec::new();
    let others: Vec<usize> = (0..CURVE.len()).filter(|&i| i != NOMINAL).collect();
    // Warm-up segment, not counted: the allocator's arenas and the page
    // tables grow on the first requests.
    let warm = schedule(CURVE[NOMINAL], unit * NOMINAL_UNITS / 2.0, args.seed);
    run_rung(server, ts, CURVE[NOMINAL], Load::Open(&warm), false, rep);
    for round in 0..ROUNDS {
        let seed = args.seed ^ ((round as u64 + 1) << 40);
        let secs = unit * NOMINAL_UNITS;
        let sched = schedule(CURVE[NOMINAL], secs, seed);
        let seg = run_rung(server, ts, CURVE[NOMINAL], Load::Open(&sched), traced, rep);
        nominal_p50.push(seg.p(0.5));
        nominal.merge(seg);
        let closed = Load::Closed {
            in_flight: IN_FLIGHT,
            secs: unit * CLOSED_UNITS,
            rng: Rng(seed ^ 0xC105_ED00),
        };
        closed_runs.push(run_rung(server, ts, 0.0, closed, traced, rep));
        for &i in others.iter().skip(round).step_by(ROUNDS) {
            let sched = schedule(CURVE[i], unit * CURVE_UNITS, seed);
            curve[i] = Some(run_rung(
                server,
                ts,
                CURVE[i],
                Load::Open(&sched),
                traced,
                rep,
            ));
        }
    }
    curve[NOMINAL] = Some(nominal);
    Pass {
        curve: curve
            .into_iter()
            .map(|r| r.expect("every curve rate ran"))
            .collect(),
        nominal_p50,
        closed: closed_runs,
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let ts = tenants(args.seed);
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            drop(start(&ts, false));
            t.elapsed().as_secs_f64()
        })
        .collect();

    let plain = start(&ts, false);
    // The end-to-end figure is the set-up peak: the request path's peak
    // moved by a third between runs with the allocator's timing, so it is
    // reported per layer instead.
    let setup_rss = host::peak_rss_mb();
    let p = if args.trace {
        // Untraced baseline for the overhead figure: the nominal segments.
        let unit = unit_secs(args.seconds);
        let mut base = Vec::new();
        for round in 0..ROUNDS {
            let secs = unit * NOMINAL_UNITS;
            let sched = schedule(CURVE[NOMINAL], secs, args.seed ^ ((round as u64 + 1) << 40));
            base.push(run_rung(&plain, &ts, CURVE[NOMINAL], Load::Open(&sched), false, rep).p(0.5));
        }
        drop(plain);
        sellkit_obs::set_enabled(true);
        let server = start(&ts, true);
        let p = pass(&server, &ts, args, true, rep);
        drop(server);
        sellkit_obs::set_enabled(false);
        layer_metrics(rep, &p, median(&base));
        p
    } else {
        let p = pass(&plain, &ts, args, false, rep);
        drop(plain);
        p
    };
    rep.set("serve.peak_rss_mb", host::peak_rss_mb());

    let capacity: Vec<f64> = p.closed.iter().map(Rung::goodput).collect();
    let nominal = &p.curve[NOMINAL];
    rep.set("setup_s", median(&setup));
    rep.set("latency_ms", median(&p.nominal_p50));
    rep.set("throughput_per_s", median(&capacity));
    rep.set("rss_mb", setup_rss);
    rep.line(format!(
        "serve_p50_ms {} ms (median of {ROUNDS} segments), serve_p99_ms {} ms at {} req/s \
         ({} requests pooled)",
        median(&p.nominal_p50),
        nominal.p(0.99),
        nominal.rate,
        nominal.latency_ms.len()
    ));
    rep.line(format!(
        "serve_capacity {} req/s (median of {ROUNDS} closed-loop segments with {IN_FLIGHT} \
         requests in flight; queue never empty: {})",
        median(&capacity),
        p.closed.iter().all(Rung::saturated)
    ));
    rep.line(format!(
        "serve_max_rps {} req/s (p99 limit {P99_LIMIT_MS} ms, no growing backlog)",
        max_rate(&p.curve)
    ));
    for r in &p.curve {
        rep.line(format!(
            "rate {:>6} req/s: sent {:>6}, p50 {:>8.3} ms, p99 {:>9.3} ms, late p99 {:.3} ms, \
             backlog max {}, growing {}, refused {}, errors {}, {}",
            r.rate,
            r.sent,
            r.p(0.5),
            r.p(0.99),
            quantile(&r.late_ms, 0.99),
            r.backlog.iter().map(|b| b.1).max().unwrap_or(0),
            r.growing,
            r.refused,
            r.errors,
            if r.sustained() { "sustained" } else { "missed" }
        ));
    }
    for r in &p.closed {
        rep.line(format!(
            "closed loop, {IN_FLIGHT} in flight: {} req/s, p50 {:.3} ms, p99 {:.3} ms, errors {}",
            r.goodput(),
            r.p(0.5),
            r.p(0.99),
            r.errors
        ));
    }
    rep.stamp = Some(host::Stamp::take(args.nproc, crate::spmv::DRAM_BYTES));
}

fn layer_metrics(rep: &mut Report, p: &Pass, plain_nominal_p50: f64) {
    rep.set("serve.max_rps", max_rate(&p.curve));
    let obs = sellkit_obs::report();
    let hist_p99 = |name: &str| obs.hists.get(name).map_or(0.0, |h| h.percentile(0.99));
    rep.set("serve.queue_wait_ms_p99", hist_p99("serve.queue_wait_ms"));
    rep.set("serve.compute_ms_p99", hist_p99("serve.compute_ms"));
    rep.set(
        "serve.batch_k_mean",
        obs.hists.get("serve.batch_k").map_or(0.0, |h| h.mean()),
    );
    let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0.0);
    rep.set(
        "serve.matrix_bytes_per_req",
        counter("serve.matrix_bytes") / counter("serve.requests").max(1.0),
    );
    let rungs: Vec<&Rung> = p.curve.iter().chain(&p.closed).collect();
    let all = |f: fn(&Rung) -> &Vec<f64>| -> Vec<f64> {
        rungs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    rep.set(
        "serve.submit_us_p99",
        quantile(&all(|r| &r.submit_us), 0.99),
    );
    rep.set(
        "serve.gen_late_ms_p99",
        quantile(&all(|r| &r.late_ms), 0.99),
    );
    rep.set(
        "serve.backlog_max",
        rungs
            .iter()
            .flat_map(|r| r.backlog.iter().map(|b| b.1))
            .max()
            .unwrap_or(0) as f64,
    );
    rep.set(
        "serve.refused",
        rungs.iter().map(|r| r.refused).sum::<u64>() as f64,
    );
    for (name, r) in CURVE_NAMES.iter().zip(&p.curve) {
        rep.set(name, r.p(0.99));
    }
    rep.set(
        "trace.overhead_frac",
        median(&p.nominal_p50) / plain_nominal_p50 - 1.0,
    );

    // Share of the generator's time outside submits, polls and waits.
    let nodes = trace::analyze(trace::drain());
    let submit_s: f64 = nodes
        .iter()
        .filter(|n| n.rec.name == trace::SUBMIT)
        .map(|n| n.rec.secs())
        .sum();
    let loop_s: f64 = rungs
        .iter()
        .map(|r| (r.poll_ns + r.idle_ns) as f64 * 1e-9)
        .sum();
    let wall: f64 = rungs.iter().map(|r| r.wall_s).sum();
    rep.set("trace.unattributed_frac", 1.0 - (submit_s + loop_s) / wall);
    rep.spans = nodes;
}
