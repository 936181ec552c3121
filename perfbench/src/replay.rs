//! The protocol replay of the traced run: the `udp_echo` request path
//! with the sockets taken out — one thread, the same seed, op and
//! servers — so each layer's cost can be timed on its own:
//!
//! client core → encode → decode → switch → encode → decode → server
//! core → encode → decode → switch → encode → decode → client core.
//!
//! Time is a counter advanced 1 µs per request, so a replay repeats
//! exactly: the switch counters and the client's verdicts are the same on
//! every run of one seed.

use std::time::Instant;

use netclone_asic::{DataPlane, Emission, EmissionSink};
use netclone_core::{NetCloneConfig, NetCloneSwitch, SwitchEngine};
use netclone_hostcore::{ClientCore, ClientMode, RxEvent, ServerCore};
use netclone_net::{decode_packet_borrowed, encode_packet_into};
use netclone_proto::{Ipv4, PacketMeta, RpcOp};

use crate::trace::{Tracer, NONE};
use crate::udp::{OP, SERVERS};
use crate::{alloc, median, Outcome};

/// Requests per pass; untraced and traced passes (medians are kept).
const PASS_REQUESTS: u32 = 2_000;
const UNTRACED_PASSES: usize = 9;
const TRACED_PASSES: usize = 3;
/// Empty spans recorded to price one span's own clock reads.
const EMPTY_SPANS: u32 = 2_000;

/// Soft-switch port conventions: server `sid` on `10 + sid`, client
/// `cid` on `100 + cid`.
const SERVER_PORT_BASE: u16 = 10;
const CLIENT_PORT: u16 = 100;

struct Stack {
    client: ClientCore,
    switch: NetCloneSwitch,
    servers: Vec<ServerCore>,
    buf: Vec<u8>,
    sink: EmissionSink,
    fanout: Vec<Emission>,
    back: Vec<Emission>,
}

/// What one pass saw, for the checks.
#[derive(Default)]
struct Tally {
    completions: u64,
    other_verdicts: u64,
    passes: u64,
    pass_allocs: u64,
}

impl Stack {
    fn new(seed: u64) -> Self {
        let mut switch = NetCloneSwitch::new(NetCloneConfig::default());
        for sid in 0..SERVERS {
            switch
                .register_server(sid, Ipv4::server(sid), SERVER_PORT_BASE + sid)
                .expect("register replay server");
        }
        let client = ClientCore::new(
            0,
            ClientMode::NetClone {
                num_groups: SwitchEngine::num_groups(&switch),
                num_filter_tables: 2,
            },
            seed,
        );
        switch
            .register_client(client.ip(), CLIENT_PORT)
            .expect("register replay client");
        Stack {
            client,
            switch,
            servers: (0..SERVERS).map(ServerCore::new).collect(),
            buf: Vec::with_capacity(256),
            sink: EmissionSink::new(),
            fanout: Vec::with_capacity(EmissionSink::INLINE_CAPACITY),
            back: Vec::with_capacity(EmissionSink::INLINE_CAPACITY),
        }
    }

    /// Encodes `meta` into the wire buffer and decodes it back, as a hop
    /// over a socket would.
    fn wire(&mut self, meta: &PacketMeta, op: &RpcOp, t: &mut Tracer, req: u32) -> PacketMeta {
        t.span("net.encode", req, || {
            encode_packet_into(meta, op, &[], &mut self.buf)
        });
        let buf = &self.buf;
        let (meta, _, _) = t
            .span("net.decode", req, || decode_packet_borrowed(buf))
            .expect("a frame this replay encoded decodes");
        meta
    }

    /// One switch pass, with its heap allocations counted when traced.
    fn pass(
        &mut self,
        meta: PacketMeta,
        now: u64,
        t: &mut Tracer,
        name: &'static str,
        req: u32,
        tally: &mut Tally,
    ) {
        let a0 = if t.enabled() { alloc::allocs() } else { 0 };
        t.span(name, req, || {
            self.switch.process(meta, 0, now, &mut self.sink)
        });
        if t.enabled() {
            tally.pass_allocs += alloc::allocs() - a0;
        }
        tally.passes += 1;
    }

    fn request(&mut self, seq: u32, t: &mut Tracer, tally: &mut Tally) {
        let now = u64::from(seq) * 1_000;
        let root = t.begin("replay.request", seq);
        let meta = t
            .span("hostcore.client_tx", seq, || {
                self.client.generate(OP, now);
                self.client.poll()
            })
            .expect("NetClone mode emits one packet per request");
        let meta = self.wire(&meta, &OP, t, seq);
        self.pass(meta, now, t, "core.request_pass", seq, tally);
        self.fanout.clear();
        self.fanout.extend(self.sink.drain());
        for k in 0..self.fanout.len() {
            let e = self.fanout[k];
            let req = self.wire(&e.pkt, &OP, t, seq);
            let sid = e.port - SERVER_PORT_BASE;
            let server = &self.servers[usize::from(sid)];
            let nc = t.span("hostcore.server", seq, || {
                server.admit(req.nc.clo, 0);
                server.response(&req.nc, 0)
            });
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), req.src_ip, nc, 0);
            let resp = self.wire(&resp, &OP, t, seq);
            self.pass(resp, now, t, "core.response_pass", seq, tally);
            self.back.clear();
            self.back.extend(self.sink.drain());
            for j in 0..self.back.len() {
                let back = self.back[j].pkt;
                let back = self.wire(&back, &OP, t, seq);
                match t.span("hostcore.client_rx", seq, || {
                    self.client.on_packet(&back.nc, now)
                }) {
                    RxEvent::Completed { .. } => tally.completions += 1,
                    _ => tally.other_verdicts += 1,
                }
            }
        }
        t.end(root);
    }

    /// Replays `n` requests; returns the tally and the wall time in ns.
    fn replay(&mut self, n: u32, t: &mut Tracer) -> (Tally, u64) {
        let mut tally = Tally::default();
        let t0 = Instant::now();
        for seq in 0..n {
            self.request(seq, t, &mut tally);
        }
        (tally, t0.elapsed().as_nanos() as u64)
    }
}

/// Runs the untraced passes and the traced one, checks them, and adds
/// the replay's per-layer metrics to `out`.
pub fn run(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let mut untraced = Tracer::new(false);
    let pass = |t: &mut Tracer, out: &mut Outcome| {
        let mut stack = Stack::new(seed);
        let (tally, ns) = stack.replay(PASS_REQUESTS, t);
        check(out, &stack, &tally, PASS_REQUESTS);
        (tally, ns as f64 / f64::from(PASS_REQUESTS))
    };
    let plain: Vec<f64> = (0..UNTRACED_PASSES)
        .map(|_| pass(&mut untraced, out).1)
        .collect();
    let mut traced = Vec::with_capacity(TRACED_PASSES);
    let mut tally = Tally::default();
    for _ in 0..TRACED_PASSES {
        let span = tracer.begin("replay", NONE);
        let (t, ns) = pass(tracer, out);
        tracer.end(span);
        tally.passes += t.passes;
        tally.pass_allocs += t.pass_allocs;
        traced.push(ns);
    }

    for i in 0..EMPTY_SPANS {
        let id = tracer.begin("trace.empty", i);
        tracer.end(id);
    }

    let untraced_ns = median(&plain);
    let self_times = tracer.self_times();
    let m = &mut out.metrics;
    for (span, metric) in [
        ("hostcore.client_tx", "hostcore.client_tx_ns"),
        ("hostcore.client_rx", "hostcore.client_rx_ns"),
        ("hostcore.server", "hostcore.server_ns"),
        ("core.request_pass", "core.request_pass_ns"),
        ("core.response_pass", "core.response_pass_ns"),
        ("net.encode", "net.encode_ns"),
        ("net.decode", "net.decode_ns"),
        ("trace.empty", "trace.empty_span_ns"),
    ] {
        if let Some(v) = self_times.get(span) {
            let v: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            m.insert(metric, median(&v));
        }
    }
    m.insert(
        "asic.allocs_per_pass",
        tally.pass_allocs as f64 / tally.passes as f64,
    );
    m.insert("replay.ns_per_req", untraced_ns);
    m.insert("trace.overhead_ns_per_req", median(&traced) - untraced_ns);
    if let Some(&mean_us) = m.get("net.rtt_mean_us") {
        m.insert("net.residual_us_per_req", mean_us - untraced_ns / 1e3);
    }
}

/// Every request completes exactly once, nothing else reaches the
/// client, and every clone's slower response is filtered at the switch.
fn check(out: &mut Outcome, stack: &Stack, tally: &Tally, n: u32) {
    let n = u64::from(n);
    let c = SwitchEngine::counters(&stack.switch);
    out.attempted += n;
    out.check(
        tally.completions == n && tally.other_verdicts == 0,
        n,
        || {
            format!(
                "replay: {} completions and {} other verdicts for {n} requests",
                tally.completions, tally.other_verdicts
            )
        },
    );
    out.check(c.responses_filtered == c.cloned, n, || {
        format!(
            "replay: {} responses filtered for {} clones",
            c.responses_filtered, c.cloned
        )
    });
}
