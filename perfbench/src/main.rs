//! The NetClone reproduction's benchmark: one command, three workloads,
//! every end-to-end metric by name and unit, checked outputs, and a
//! separate traced run for the per-layer numbers.
//!
//! ```text
//! perfbench --workload des_rack|des_fattree|udp_echo --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! With `--trace 0` it holds the end-to-end metrics, with `--trace 1`
//! the per-layer ones (and the span file is written under `.bench_out/`).
//! See `README.md` next to this package for what each number means.

mod alloc;
mod des;
mod replay;
mod sys;
mod trace;
mod udp;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics (tracing off): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("req_per_s", "req/s"),
    ("cpu_us_per_req", "us"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run): name and unit. A workload that does
/// not exercise a layer reports its metrics as 0 (see the README table).
const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.events_per_req", "count"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.allocs_per_req", "count"),
    ("cluster.cpu_per_wall", "ratio"),
    ("cluster.shard_speedup", "ratio"),
    ("core.passes_per_req", "count"),
    ("core.clone_rate", "ratio"),
    ("core.filtered_per_clone", "ratio"),
    ("hostcore.clone_win_ratio", "ratio"),
    ("hosts.clone_drops_per_clone", "ratio"),
    ("linksim.forwarded_per_req", "count"),
    ("linksim.drops", "count/rep"),
    ("linksim.ecn_marks", "count/rep"),
    ("net.switch_cpu_us_per_req", "us"),
    ("net.server_cpu_us_per_req", "us"),
    ("net.caller_cpu_us_per_req", "us"),
    ("net.kernel_cpu_share", "ratio"),
    ("net.wakeups_per_req", "count"),
    ("net.rtt_p50_us", "us"),
    ("net.rtt_p99_us", "us"),
    ("net.rtt_p999_us", "us"),
    ("net.rtt_samples", "count"),
    ("net.allocs_per_req", "count"),
    ("net.residual_us_per_req", "us"),
    ("net.kernel_drops", "count"),
    ("net.client_register_s", "s"),
    ("net.buffer_grow_allocs", "count"),
    ("net.timeout_syscalls", "count"),
    ("core.cloned_per_req", "count"),
    ("core.filtered_per_req", "count"),
    ("hostcore.client_tx_ns", "ns"),
    ("hostcore.client_rx_ns", "ns"),
    ("hostcore.server_ns", "ns"),
    ("core.request_pass_ns", "ns"),
    ("core.response_pass_ns", "ns"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("asic.allocs_per_pass", "count"),
    ("replay.ns_per_req", "ns"),
    ("trace.overhead_ns_per_req", "ns"),
    ("trace.empty_span_ns", "ns"),
];

/// What one workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (simulated requests or real calls).
    pub attempted: u64,
    /// Operations that failed, or belonged to a unit whose check failed.
    pub failed: u64,
    /// Failed checks, described for standard error.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a check: when `ok` is false, `ops` operations count as
    /// failed and `what` is reported.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.problems.push(what());
        }
    }
}

/// A 64-bit mix of a seed and an index (SplitMix64's finaliser): the
/// seed of the `i`th unit of work of a run.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// "q1 / median / q3" of a non-empty sample, for diagnostics.
pub fn quartiles(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "q1 {:.0} / median {:.0} / q3 {:.0}",
        at(0.25),
        median(&v),
        at(0.75)
    )
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload des_rack|des_fattree|udp_echo \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "des_rack" => des::run(des::Kind::Rack, args.seed, args.seconds, &mut tracer),
        "des_fattree" => des::run(des::Kind::FatTree, args.seed, args.seconds, &mut tracer),
        "udp_echo" => udp::run(args.seed, args.seconds, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (des_rack|des_fattree|udp_echo)");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        replay::run(args.seed, &mut tracer, &mut out);
        let path = Path::new(".bench_out").join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            out.problems.push(format!("{name} is not a finite number"));
            out.failed = out.attempted.max(1);
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    // A unit failing several checks counts its operations once.
    let attempted = out.attempted.max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.failed.min(attempted),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
