//! The `udp_echo` workload: real sockets on loopback — the soft switch
//! and two zero-service echo servers of one worker each — driven by one
//! closed-loop caller (`UdpClient`, one thread, one socket) issuing
//! back-to-back `Echo { class_ns: 0 }` calls.
//!
//! Closed loop, so a slow program receives less load rather than a queue
//! that measures the scheduler. The caller and the testbed threads share
//! one CPU: across two CPUs every hop is a cross-CPU wake-up, whose cost
//! on a small VM swung the loop's rate twofold between identical runs.
//! The measured phase is whole batches of calls; the metrics are medians
//! over batches.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use netclone_core::NetCloneConfig;
use netclone_net::{path_counters, Testbed, UdpClient, WorkExecutor};
use netclone_proto::RpcOp;

use crate::sys::{self, ThreadSample};
use crate::trace::{Tracer, NONE};
use crate::{alloc, derive_seed, median, ratio, Outcome};

/// The one operation: a zero-service echo, the smallest packet.
pub const OP: RpcOp = RpcOp::Echo { class_ns: 0 };
/// Servers, and worker threads per server.
pub const SERVERS: u16 = 2;
const WORKERS: usize = 1;
/// Calls per measured batch.
const BATCH_CALLS: u64 = 500;
/// Batches the bookkeeping is sized for (grown past only by very long runs).
const MAX_BATCHES: usize = 4096;
/// Unmeasured calls before the first batch.
const WARMUP_CALLS: u64 = 500;
/// A set-up probe (a testbed spawned and shut down) runs after every this
/// many batches, so a run's probes sample the host across the whole run.
const PROBE_EVERY_BATCHES: usize = 40;
/// Least set-up probes per run, the kept testbed's spawn included; short
/// runs are topped up after the last batch. `setup_s` is their median.
const MIN_SETUP_PROBES: usize = 9;
/// A call unanswered this long has failed.
const CALL_TIMEOUT: Duration = Duration::from_secs(1);

/// Spawns the switch and the servers and registers the servers: the
/// set-up a run pays before its first request, less the caller's
/// registration, whose time is `Testbed::client`'s fixed 5 ms settle
/// sleep (timed apart, as `net.client_register_s`). Returns the testbed
/// and the seconds the spawn took.
fn spawn(tracer: &mut Tracer) -> (Testbed, f64) {
    let t0 = Instant::now();
    let tb = tracer.span("testbed.spawn", NONE, || {
        Testbed::spawn(
            NetCloneConfig::default(),
            SERVERS,
            WORKERS,
            WorkExecutor::Synthetic,
        )
        .expect("spawn the loopback testbed")
    });
    (tb, t0.elapsed().as_secs_f64())
}

/// One set-up probe: a testbed spawned, timed and shut down.
fn probe(tracer: &mut Tracer, setups: &mut Vec<f64>) {
    let (tb, took) = spawn(tracer);
    setups.push(took);
    tracer.span("testbed.shutdown", NONE, || tb.shutdown());
}

/// The testbed's socket ports, for the kernel's per-socket drop counters.
fn ports(tb: &Testbed, client: &UdpClient) -> Vec<u16> {
    let mut p = vec![
        tb.switch_addr().port(),
        client.addr().expect("caller address").port(),
    ];
    p.extend(tb.servers().iter().map(|s| s.addr().port()));
    p
}

/// CPU time and voluntary switches summed per thread group between two
/// samples: `switch`, `server`, `caller`.
fn thread_deltas(
    before: &BTreeMap<u64, ThreadSample>,
    after: &BTreeMap<u64, ThreadSample>,
    caller_tid: u64,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (tid, a) in after {
        let group = if *tid == caller_tid {
            "caller"
        } else if a.name == "soft-switch" {
            "switch"
        } else if a.name.starts_with("server") {
            "server"
        } else {
            continue;
        };
        let (c0, v0) = before.get(tid).map_or((0, 0), |b| (b.cpu_ns, b.voluntary));
        let e = out.entry(group).or_default();
        e.0 += a.cpu_ns.saturating_sub(c0);
        e.1 += a.voluntary.saturating_sub(v0);
    }
    out
}

/// Nearest-rank quantile of a sorted sample.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One traced call; its round trip in ns, or `None` when it failed.
fn call(client: &mut UdpClient, tracer: &mut Tracer, seq: u32) -> Option<u64> {
    match tracer.span("udp.call", seq, || client.call(OP, CALL_TIMEOUT)) {
        Ok(reply) => Some(reply.latency.as_nanos() as u64),
        Err(e) => {
            eprintln!("perfbench: call {seq} failed: {e}");
            None
        }
    }
}

pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    match sys::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("perfbench: udp_echo pinned to CPU {cpu}"),
        Err(e) => eprintln!("perfbench: udp_echo runs unpinned: {e}"),
    }

    // The measured testbed's spawn is the first set-up probe; the rest
    // run between batches.
    let mut setups = Vec::with_capacity(MAX_BATCHES);
    let (mut tb, took) = spawn(tracer);
    setups.push(took);
    let t0 = Instant::now();
    let mut client = tracer.span("testbed.client", NONE, || {
        tb.client(derive_seed(seed, 0))
            .expect("bind and register the caller")
    });
    out.metrics
        .insert("net.client_register_s", t0.elapsed().as_secs_f64());
    let handle = tb.switch_handle();
    let ports = ports(&tb, &client);

    let mut call_failures = 0u64;
    for _ in 0..WARMUP_CALLS {
        if call(&mut client, tracer, NONE).is_none() {
            call_failures += 1;
        }
    }
    let warm_failures = call_failures;

    let caller_tid = sys::gettid();
    let th0 = sys::threads();
    let sw0 = handle.counters();
    let pc0 = path_counters();
    let (done0, wins0) = (client.completed(), client.clone_wins());
    let snmp0 = sys::udp_snmp();
    let mut drops_before = sys::udp_drops(&ports);
    let mut drops = 0u64;

    // Sized up front, so the benchmark's own bookkeeping does not grow
    // the heap it measures; round trips are kept only when tracing.
    // Allocations and user/system time are summed over batches only, so
    // the set-up probes between batches stay out of them.
    let mut rates = Vec::with_capacity(MAX_BATCHES);
    let mut cpus = Vec::with_capacity(MAX_BATCHES);
    let mut peaks = Vec::with_capacity(MAX_BATCHES);
    let mut rtts = Vec::new();
    let (mut allocs, mut user, mut sys_ticks) = (0u64, 0u64, 0u64);
    let mut calls = 0u64;
    let start = Instant::now();
    while calls == 0 || start.elapsed().as_secs() < seconds {
        if rates.len() % PROBE_EVERY_BATCHES == PROBE_EVERY_BATCHES - 1 {
            probe(tracer, &mut setups);
        }
        let us0 = sys::process_user_sys_ticks();
        let batch = tracer.begin("udp.batch", NONE);
        alloc::reset_peak();
        let a0 = alloc::allocs();
        let c0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        for _ in 0..BATCH_CALLS {
            let seq = u32::try_from(calls).expect("fewer than 2^32 calls");
            match call(&mut client, tracer, seq) {
                Some(ns) if tracer.enabled() => rtts.push(ns),
                Some(_) => {}
                None => call_failures += 1,
            }
            calls += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu_ns = sys::process_cpu_ns() - c0;
        allocs += alloc::allocs() - a0;
        peaks.push(alloc::peak_mb());
        tracer.end(batch);
        let us1 = sys::process_user_sys_ticks();
        (user, sys_ticks) = (user + us1.0 - us0.0, sys_ticks + us1.1 - us0.1);
        rates.push(BATCH_CALLS as f64 / wall);
        cpus.push(cpu_ns as f64 / 1e3 / BATCH_CALLS as f64);
        // Not a pass/fail check (see the README): now and then datagrams
        // are dropped in the kernel on a testbed socket. Each occurrence
        // is reported with the batch it fell in and that batch's rate.
        let drops_now = sys::udp_drops(&ports);
        if drops_now > drops_before {
            let per_port: Vec<String> = ports
                .iter()
                .map(|&p| format!("{p}:{}", sys::udp_drops(&[p])))
                .collect();
            eprintln!(
                "perfbench: warning: {} datagrams dropped in the kernel in batch {} \
                 ({:.0} calls/s; port:drops {} for switch, caller, servers)",
                drops_now - drops_before,
                rates.len() - 1,
                BATCH_CALLS as f64 / wall,
                per_port.join(" "),
            );
            drops += drops_now - drops_before;
            drops_before = drops_now;
        }
    }
    let th1 = sys::threads();
    let pc1 = path_counters();
    let sw = handle.counters().since(&sw0);
    let completed = client.completed() - done0;
    let clone_wins = client.clone_wins() - wins0;
    let groups = thread_deltas(&th0, &th1, caller_tid);
    if drops > 0 {
        eprintln!(
            "perfbench: warning: {drops} datagrams dropped in the kernel in all \
             (Udp counters {snmp0} -> {})",
            sys::udp_snmp()
        );
    }
    tracer.span("testbed.shutdown", NONE, || tb.shutdown());
    while setups.len() < MIN_SETUP_PROBES {
        probe(tracer, &mut setups);
    }
    out.metrics.insert("setup_s", median(&setups));

    let attempted = WARMUP_CALLS + calls;
    out.attempted = attempted;
    out.check(call_failures == 0, call_failures, || {
        format!("{call_failures} of {attempted} calls failed")
    });
    let failed = call_failures - warm_failures;
    out.check(completed == calls - failed, calls, || {
        format!("caller completed {completed} requests for {calls} calls")
    });
    out.check(sw.requests == calls, calls, || {
        format!("switch saw {} requests for {calls} calls", sw.requests)
    });
    let m = &mut out.metrics;
    eprintln!(
        "perfbench: udp_echo: {} batches of {BATCH_CALLS} calls, calls/s {}",
        rates.len(),
        crate::quartiles(&rates)
    );
    m.insert("req_per_s", median(&rates));
    m.insert("cpu_us_per_req", median(&cpus));
    m.insert("peak_heap_mb", median(&peaks));

    let n = calls as f64;
    let per_call = |group: &str| groups.get(group).map_or(0.0, |g| g.0 as f64 / 1e3 / n);
    m.insert("net.switch_cpu_us_per_req", per_call("switch"));
    m.insert("net.server_cpu_us_per_req", per_call("server"));
    m.insert("net.caller_cpu_us_per_req", per_call("caller"));
    m.insert(
        "net.kernel_cpu_share",
        ratio(sys_ticks as f64, (user + sys_ticks) as f64),
    );
    m.insert(
        "net.wakeups_per_req",
        groups.values().map(|g| g.1 as f64).sum::<f64>() / n,
    );
    rtts.sort_unstable();
    if !rtts.is_empty() {
        m.insert("net.rtt_p50_us", quantile(&rtts, 0.50) as f64 / 1e3);
        m.insert("net.rtt_p99_us", quantile(&rtts, 0.99) as f64 / 1e3);
        m.insert("net.rtt_p999_us", quantile(&rtts, 0.999) as f64 / 1e3);
        let mean_us = rtts.iter().sum::<u64>() as f64 / rtts.len() as f64 / 1e3;
        m.insert("net.rtt_mean_us", mean_us);
    }
    m.insert("net.rtt_samples", rtts.len() as f64);
    m.insert("net.allocs_per_req", allocs as f64 / n);
    m.insert("net.kernel_drops", drops as f64);
    m.insert(
        "net.buffer_grow_allocs",
        (pc1.buffer_grow_allocs - pc0.buffer_grow_allocs) as f64,
    );
    m.insert(
        "net.timeout_syscalls",
        (pc1.timeout_syscalls - pc0.timeout_syscalls) as f64,
    );
    m.insert(
        "hostcore.clone_win_ratio",
        ratio(clone_wins as f64, completed as f64),
    );
    m.insert("core.cloned_per_req", sw.cloned as f64 / n);
    m.insert("core.filtered_per_req", sw.responses_filtered as f64 / n);
    m.insert("core.clone_rate", sw.clone_rate());
    m.insert(
        "core.filtered_per_clone",
        ratio(sw.responses_filtered as f64, sw.cloned as f64),
    );
    out
}
