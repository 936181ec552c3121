//! The span recorder of the traced run: one span around each public
//! call the benchmark makes into the program, kept in memory and written
//! out once when the benchmark ends.
//!
//! A span has a name, a start and an end (ns since the recorder was
//! made), the span that caused it (its parent) and a request id that
//! groups the spans of one request. A span's self time is its duration
//! minus that of its children, which nest inside it. A disabled recorder
//! records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent / no request.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u32,
}

/// Open a span with [`Tracer::begin`], close it with [`Tracer::end`];
/// spans opened while another is open become its children.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; `req` is the request it belongs to ([`NONE`] for a
    /// phase span). Returns its id, or [`NONE`] when disabled.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Self time (duration minus children) of every closed span, grouped
    /// by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            out.entry(s.name)
                .or_default()
                .push(dur.saturating_sub(*child));
        }
        out
    }

    /// Writes a header object naming the fields, then every span as one
    /// JSON array per line: `[id, name, start_ns, end_ns, parent, req]`
    /// (`parent` and `req` are -1 when absent).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"fields\":[\"id\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"req\"]}}"
        )?;
        let opt = |v: u32| if v == NONE { -1 } else { i64::from(v) };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "[{id},\"{}\",{},{},{},{}]",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.req)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 7);
        let child = t.begin("child", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let st = t.self_times();
        assert!(st["child"][0] >= 2_000_000);
        assert!(st["root"][0] < st["child"][0]);
        assert_eq!(t.spans[child as usize].parent, root);

        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.self_times().is_empty());
    }
}
