//! sellkit's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gs_cn_256 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output it produced, prints one `name value unit` line per
//! metric, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end set ([`E2E`]), measured
//! with no wrapper in the path; with `--trace 1` they are the per-layer
//! set ([`PER_LAYER`]), taken by the outside-in wrappers of [`trace`].
//! A layer a workload does not call reads 0.  The run's full record —
//! host stamp, every metric, every check failure and, when traced, every
//! span — is written under `perfbench/out/`.

mod gs;
mod host;
mod serve;
mod spmv;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with tracing off.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of the traced run.  Times are per CN step on
/// `gs_cn_256`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.assemble_s", "s"),
    ("workloads.assemble_calls", "count"),
    ("workloads.rhs_s", "s"),
    ("core.matops.shift_s", "s"),
    ("pc.mg.setup_s", "s"),
    ("pc.mg.rap_s", "s"),
    ("core.convert.fine_s", "s"),
    ("core.convert.mg_s", "s"),
    ("snes.jacobian_eval_s", "s"),
    ("snes.function_eval_s", "s"),
    ("snes.newton_its", "count"),
    ("ts.step_s", "s"),
    ("ksp.solve_s", "s"),
    ("ksp.gmres_its", "count"),
    ("ksp.vecops_s", "s"),
    ("pc.mg.apply_s", "s"),
    ("pc.mg.apply_self_s", "s"),
    ("pc.mg.level0.matmult_s", "s"),
    ("pc.mg.level0.gbs", "GB/s"),
    ("pc.mg.level1.matmult_s", "s"),
    ("pc.mg.level1.gbs", "GB/s"),
    ("pc.mg.level2.matmult_s", "s"),
    ("pc.mg.level2.gbs", "GB/s"),
    ("core.matmult.fine_s", "s"),
    ("core.matmult.fine_gbs", "GB/s"),
    ("core.matmult.serial_share", "fraction"),
    ("core.kernel.csr.gbs", "GB/s"),
    ("core.kernel.csr.bytes_per_nnz", "B"),
    ("core.kernel.csr.roof_frac", "fraction"),
    ("core.kernel.sell8.gbs", "GB/s"),
    ("core.kernel.sell8.bytes_per_nnz", "B"),
    ("core.kernel.sell8.roof_frac", "fraction"),
    ("core.kernel.sell8.t1_gbs", "GB/s"),
    ("core.kernel.sell8_sigma32.gbs", "GB/s"),
    ("core.kernel.sell8_sigma32.bytes_per_nnz", "B"),
    ("core.kernel.sell8_sigma32.roof_frac", "fraction"),
    ("core.kernel.sell8_f32.gbs", "GB/s"),
    ("core.kernel.sell8_f32.bytes_per_nnz", "B"),
    ("core.kernel.sell8_f32.roof_frac", "fraction"),
    ("core.kernel.sell8_bf16.gbs", "GB/s"),
    ("core.kernel.sell8_bf16.bytes_per_nnz", "B"),
    ("core.kernel.sell8_bf16.roof_frac", "fraction"),
    ("core.spmm.k8.gbs", "GB/s"),
    ("core.spmm.k8.bytes_per_rhs", "B"),
    ("core.exec.dispatch_ns", "ns"),
    ("core.kernel.small.apply_us", "us"),
    ("machine.triad_gbs_t1", "GB/s"),
    ("machine.triad_gbs", "GB/s"),
    ("serve.max_rps", "1/s"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.compute_ms_p99", "ms"),
    ("serve.batch_k_mean", "count"),
    ("serve.matrix_bytes_per_req", "B"),
    ("serve.backlog_max", "count"),
    ("serve.peak_rss_mb", "MB"),
    ("serve.refused", "count"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.curve.r500.p99_ms", "ms"),
    ("serve.curve.r1000.p99_ms", "ms"),
    ("serve.curve.r1500.p99_ms", "ms"),
    ("serve.curve.r2000.p99_ms", "ms"),
    ("serve.curve.r2500.p99_ms", "ms"),
    ("serve.curve.r3000.p99_ms", "ms"),
    ("serve.curve.r3500.p99_ms", "ms"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["gs_cn_256", "spmv_sweep", "serve_poisson"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Threads for parallel contexts.
    pub nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        nproc: host::nproc(),
    })
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Metric values by name; end-to-end or per-layer depending on the run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: checks, steps, requests.
    pub attempted: u64,
    /// Attempts that failed: a failed check, an error or a refusal.
    pub failed: u64,
    /// Wrong outputs and errors, described; empty when every checked
    /// output was correct.
    pub wrong: Vec<String>,
    /// Human-readable extra lines (headline figures, tables).
    pub lines: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Node>,
    /// The host stamp, measured at the end of the run.
    pub stamp: Option<host::Stamp>,
}

impl Report {
    /// Counts one check; a failing check is recorded as wrong output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // End-to-end runs must not pay for sellkit's own instrumentation even
    // when SELLKIT_LOG is set in the environment.
    sellkit_obs::set_enabled(false);

    let mut rep = Report::default();
    match args.workload.as_str() {
        "gs_cn_256" => gs::run(&args, &mut rep),
        "spmv_sweep" => spmv::run(&args, &mut rep),
        "serve_poisson" => serve::run(&args, &mut rep),
        _ => unreachable!("validated in parse_args"),
    }

    let wanted = if args.trace { PER_LAYER } else { E2E };
    let stamp = rep.stamp.take().expect("every workload stamps the host");
    if args.trace {
        rep.set("machine.triad_gbs_t1", stamp.triad_gbs_t1);
        rep.set("machine.triad_gbs", stamp.triad_gbs);
    }

    let mut metrics_json = Vec::new();
    for &(name, unit) in wanted {
        let v = rep.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} {v} {unit}");
        metrics_json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        ));
        rep.check(v.is_finite(), || {
            format!("metric {name} is not a finite number")
        });
    }
    for l in &rep.lines {
        println!("{l}");
    }
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} fraction ({} of {} attempts)",
        rep.failed, rep.attempted
    );
    for w in &rep.wrong {
        println!("FAILED: {w}");
    }
    println!("host {}", stamp.json());

    let correct = rep.wrong.is_empty() && rep.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics_json.join(", ")
    );
    if let Err(e) = write_record(&args, &rep, &stamp, &result) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    println!("{result}");
}

/// Writes the run record (and the spans of a traced run) under
/// `perfbench/out/`.
fn write_record(
    args: &Args,
    rep: &Report,
    stamp: &host::Stamp,
    result: &str,
) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let all: Vec<String> = rep
        .metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    let quote = |w: &String| format!("\"{}\"", w.replace('\\', "\\\\").replace('"', "\\\""));
    let wrong: Vec<String> = rep.wrong.iter().map(quote).collect();
    let lines: Vec<String> = rep.lines.iter().map(quote).collect();
    let mut f = std::fs::File::create(dir.join(format!("{stem}.json")))?;
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"result\": {result}, \"all_metrics\": {{{}}}, \"failures\": [{}], \"lines\": [{}]}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        stamp.json(),
        all.join(", "),
        wrong.join(", "),
        lines.join(", ")
    )?;
    if args.trace {
        trace::write_spans(&dir.join(format!("{stem}-spans.tsv")), &rep.spans)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics and workloads
    /// this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = sellkit_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(sellkit_obs::Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |f: &str| {
                        m.get(f)
                            .and_then(sellkit_obs::Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(E2E));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let wl: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(wl, WORKLOADS);
    }
}
