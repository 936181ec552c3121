//! The two discrete-event workloads, driven through
//! `Sim::run_with_shards` only.
//!
//! * `des_rack` — the paper's single-rack testbed (2 clients, 6 servers,
//!   Exp(25) with high variability, NetClone) at 60% of capacity, serial.
//! * `des_fattree` — the `fattree` experiment's k = 4, 3:1 oversubscribed
//!   cell (8 racks, background incast on rack 0, bounded link queues,
//!   NetClone), at 2 shards.
//!
//! A run is a sequence of whole simulations ("reps"), each on its own
//! seed derived from the run's seed, back to back until the measured
//! time is up. Every rep is checked; the metrics are medians over reps.

use std::time::Instant;

use netclone_cluster::experiments::{fattree, Scale};
use netclone_cluster::harness::RunCtx;
use netclone_cluster::{RunResult, Scenario, Scheme, Sim};
use netclone_workloads::exp25;

use crate::trace::{Tracer, NONE};
use crate::{alloc, derive_seed, median, ratio, sys, Outcome};

/// Simulated warm-up and measurement window of one rep.
const WARMUP_NS: u64 = 10_000_000;
const MEASURE_NS: u64 = 25_000_000;
/// Least set-up probes per run; `setup_s` is their median. One probe
/// runs before every rep, so a run's probes sample the host across the
/// whole run rather than in one burst at its start; short runs are
/// topped up to this many after the last rep.
const MIN_SETUP_PROBES: u64 = 25;
/// Seed index of the first set-up probe (reps use 0, 1, 2, …).
const PROBE_SEED_BASE: u64 = 1 << 32;
/// Reps the bookkeeping is sized for (grown past only by very long runs).
const MAX_REPS: usize = 1024;
/// Completions may differ from arrivals in the window by the requests in
/// flight at its two edges; this much simulated time of offered load
/// bounds that.
const EDGE_SLACK_NS: f64 = 500_000.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rack,
    FatTree,
}

impl Kind {
    fn shards(self) -> usize {
        match self {
            Kind::Rack => 1,
            Kind::FatTree => 2,
        }
    }
}

/// The workload's scenario for one rep.
fn scenario(kind: Kind, scheme: Scheme, seed: u64) -> Scenario {
    let mut s = match kind {
        Kind::Rack => {
            let mut s = Scenario::synthetic_default(scheme, exp25(), 0.0);
            s.offered_rps = s.capacity_rps() * 0.6;
            s
        }
        Kind::FatTree => fattree::scenario(4, 3.0, scheme, &RunCtx::new(Scale::Smoke)),
    };
    s.warmup_ns = WARMUP_NS;
    s.measure_ns = MEASURE_NS;
    s.seed = seed;
    s
}

/// FNV-1a over the `Debug` rendering of the whole result: every field
/// the simulator produces, none of which depends on wall time.
fn digest(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{r:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the metrics need of one measured simulation. The `RunResult`
/// itself is dropped after its checks, so the benchmark's own state does
/// not grow with the number of reps and the heap it measures.
struct Rep {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
    peak_mb: f64,
    /// Whole-run counts (warm-up included).
    events: u64,
    done: u64,
    forwarded: u64,
    drops: u64,
    ecn: u64,
    /// Measurement-window counts.
    win_done: u64,
    passes: u64,
    requests: u64,
    cloned: u64,
    filtered: u64,
    clone_wins: u64,
    clone_drops: u64,
}

fn measured_run(s: Scenario, shards: usize, tracer: &mut Tracer, seq: u32) -> (Rep, RunResult) {
    alloc::reset_peak();
    let a0 = alloc::allocs();
    let c0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let r = tracer.span("des.run", seq, || Sim::run_with_shards(s, shards));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = sys::process_cpu_ns() - c0;
    let allocs = alloc::allocs() - a0;
    let peak_mb = alloc::peak_mb();
    let links = r.link_totals.unwrap_or_default();
    let rep = Rep {
        wall_ns,
        cpu_ns,
        allocs,
        peak_mb,
        events: r.events,
        done: r.lifetime.completed,
        forwarded: links.edge.forwarded + links.up.forwarded + links.down.forwarded,
        drops: r.link_drops(),
        ecn: r.link_ecn_marks(),
        win_done: r.completed,
        passes: r
            .per_switch
            .iter()
            .map(|c| c.requests + c.recirculated + c.responses + c.routed_plain)
            .sum(),
        requests: r.switch.requests,
        cloned: r.switch.cloned,
        filtered: r.switch.responses_filtered,
        clone_wins: r.client_clone_wins,
        clone_drops: r.server_clone_drops,
    };
    (rep, r)
}

/// Checks that need nothing but the scenario and the result: the
/// conservation identity with zero loss, and arrivals and completions in
/// the window within Poisson bounds of offered rate × window.
fn check_rep(out: &mut Outcome, i: u64, s: &Scenario, r: &RunResult) {
    let lt = &r.lifetime;
    let ops = lt.generated;
    out.check(
        lt.generated == lt.completed + lt.lost + r.client_outstanding,
        ops,
        || {
            format!(
                "rep {i}: generated {} != completed {} + lost {} + outstanding {}",
                lt.generated, lt.completed, lt.lost, r.client_outstanding
            )
        },
    );
    // No request is evicted and no packet is lost to injected loss. On
    // a fabric with bounded queues a request whose every copy was
    // tail-dropped stays outstanding (clients run without timeouts), so
    // each one needs a link drop to explain it; without links, none.
    out.check(
        lt.lost == 0 && r.packets_lost == 0 && r.client_outstanding <= r.link_drops(),
        ops,
        || {
            format!(
                "rep {i}: lost {}, packets lost {}, outstanding {} with {} link drops",
                lt.lost,
                r.packets_lost,
                r.client_outstanding,
                r.link_drops()
            )
        },
    );
    let mean = s.offered_rps * s.measure_ns as f64 / 1e9;
    let sigma6 = 6.0 * mean.sqrt();
    let edge = s.offered_rps * EDGE_SLACK_NS / 1e9;
    out.check((r.generated as f64 - mean).abs() <= sigma6, ops, || {
        format!(
            "rep {i}: {} arrivals in the window, expected {mean:.0} ± {sigma6:.0}",
            r.generated
        )
    });
    out.check(
        (r.completed as f64 - mean).abs() <= sigma6 + edge,
        ops,
        || {
            format!(
                "rep {i}: {} completions in the window, expected {mean:.0} ± {:.0}",
                r.completed,
                sigma6 + edge
            )
        },
    );
}

pub fn run(kind: Kind, seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let shards = kind.shards();

    // Set-up: a probe is the same scenario with a 1 µs warm-up and window,
    // so its wall time is building engines, hosts, fabric and primed
    // events, plus the handful of requests and the merge. Probes run
    // serially: starting shard threads and their first barrier rounds
    // belong to the run, and on a loaded 2-CPU host they swung the
    // fat-tree probe by a third between otherwise identical sets.
    let mut probes: Vec<f64> = Vec::with_capacity(MAX_REPS);
    let mut probe = |tracer: &mut Tracer, p: u64| {
        let mut s = scenario(
            kind,
            Scheme::NETCLONE,
            derive_seed(seed, PROBE_SEED_BASE + p),
        );
        s.warmup_ns = 1_000;
        s.measure_ns = 1_000;
        let t0 = Instant::now();
        tracer.span("des.setup", NONE, || Sim::run_with_shards(s, 1));
        probes.push(t0.elapsed().as_secs_f64());
    };

    // Reference run for the first rep's cross-check, which also warms
    // caches before timing: the no-cloning Baseline on `des_rack`, the
    // serial (1-shard) execution on `des_fattree`.
    let rep0_seed = derive_seed(seed, 0);
    let reference = tracer.span("des.check", NONE, || match kind {
        Kind::Rack => Sim::run_with_shards(scenario(kind, Scheme::Baseline, rep0_seed), 1),
        Kind::FatTree => Sim::run_with_shards(scenario(kind, Scheme::NETCLONE, rep0_seed), 1),
    });

    let mut reps: Vec<Rep> = Vec::with_capacity(MAX_REPS);
    let mut speedups = Vec::with_capacity(MAX_REPS);
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs() < seconds {
        let seq = u32::try_from(i).expect("fewer than 2^32 reps");
        probe(tracer, i);
        let s = scenario(kind, Scheme::NETCLONE, derive_seed(seed, i));
        let (rep, result) = measured_run(s.clone(), shards, tracer, seq);
        let span = tracer.begin("des.collect", seq);
        check_rep(&mut out, i, &s, &result);
        let ops = result.lifetime.generated;
        out.attempted += ops;
        if i == 0 {
            match kind {
                Kind::Rack => {
                    let (nc, base) = (result.p99_us(), reference.p99_us());
                    eprintln!("perfbench: p99 NetClone {nc} us, Baseline {base} us");
                    out.check(nc < base, ops, || {
                        format!("NetClone p99 {nc} us is not below Baseline p99 {base} us")
                    });
                }
                Kind::FatTree => {
                    let (two, one) = (digest(&result), digest(&reference));
                    out.check(two == one, ops, || {
                        format!("2-shard digest {two:016x} != 1-shard digest {one:016x}")
                    });
                }
            }
        }
        tracer.end(span);
        // The traced run also times the serial execution of every
        // fat-tree rep for the shard speed-up (and checks its digest).
        if tracer.enabled() && kind == Kind::FatTree {
            let (serial, serial_result) = measured_run(s, 1, tracer, seq);
            speedups.push(serial.wall_ns as f64 / rep.wall_ns as f64);
            out.check(digest(&serial_result) == digest(&result), ops, || {
                format!("rep {i}: 2-shard digest differs from 1-shard")
            });
        }
        reps.push(rep);
        i += 1;
    }
    for p in i..MIN_SETUP_PROBES {
        probe(tracer, p);
    }
    out.metrics.insert("setup_s", median(&probes));

    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: &dyn Fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let rates = per_rep(&|r| r.done as f64 / (r.wall_ns as f64 / 1e9));
    eprintln!(
        "perfbench: {} simulations, req/s {}",
        reps.len(),
        crate::quartiles(&rates)
    );
    let m = &mut out.metrics;
    m.insert("req_per_s", median(&rates));
    m.insert(
        "cpu_us_per_req",
        median(&per_rep(&|r| r.cpu_ns as f64 / 1e3 / r.done as f64)),
    );
    m.insert("peak_heap_mb", median(&per_rep(&|r| r.peak_mb)));

    // Whole-run counts per whole-run completion, window counts per
    // window completion.
    let done = sum(&|r| r.done);
    let win_done = sum(&|r| r.win_done);
    let cloned = sum(&|r| r.cloned);
    m.insert("cluster.events_per_req", sum(&|r| r.events) / done);
    m.insert(
        "cluster.ns_per_event",
        median(&per_rep(&|r| r.cpu_ns as f64 / r.events as f64)),
    );
    m.insert("cluster.allocs_per_req", sum(&|r| r.allocs) / done);
    m.insert(
        "cluster.cpu_per_wall",
        median(&per_rep(&|r| r.cpu_ns as f64 / r.wall_ns as f64)),
    );
    if !speedups.is_empty() {
        m.insert("cluster.shard_speedup", median(&speedups));
    }
    m.insert("core.passes_per_req", sum(&|r| r.passes) / win_done);
    m.insert("core.clone_rate", ratio(cloned, sum(&|r| r.requests)));
    m.insert(
        "core.filtered_per_clone",
        ratio(sum(&|r| r.filtered), cloned),
    );
    m.insert(
        "hostcore.clone_win_ratio",
        ratio(sum(&|r| r.clone_wins), win_done),
    );
    m.insert(
        "hosts.clone_drops_per_clone",
        ratio(sum(&|r| r.clone_drops), cloned),
    );
    let n = reps.len() as f64;
    m.insert("linksim.forwarded_per_req", sum(&|r| r.forwarded) / done);
    m.insert("linksim.drops", sum(&|r| r.drops) / n);
    m.insert("linksim.ecn_marks", sum(&|r| r.ecn) / n);
    out
}
