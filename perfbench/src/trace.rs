//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself is not instrumented). Each span
//! has a name, the function it served, its layer, start and end, the span
//! that caused it, and an op id shared by every span of one operation.
//! They stay in memory until the run ends and are then written out.

use std::collections::BTreeMap;
use std::io::Write;

use hat_rdma_sim::now_ns;

use crate::meter::Func;
use crate::recorder::Recorder;

/// The layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// A synchronous op as the benchmark issues it (the generated stub).
    Bench,
    /// Engine and codec: `HatClient` calls, `encode_call`, `decode_reply`.
    Core,
    /// The one-sided READ path.
    Protocols,
    /// An async op between submit and completion; other ops run inside
    /// its interval, so it has no self time of its own.
    Inflight,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Protocols => "protocols",
            Layer::Inflight => "inflight",
        }
    }
}

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// A whole op.
    Op,
    /// `try_onesided_*` that served the op.
    OneSided,
    /// `try_onesided_*` that fell back to RPC.
    OneSidedMiss,
    Encode,
    Call,
    Decode,
    Submit,
    Wait,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::OneSided => "onesided",
            Name::OneSidedMiss => "onesided_miss",
            Name::Encode => "encode",
            Name::Call => "call",
            Name::Decode => "decode",
            Name::Submit => "submit",
            Name::Wait => "wait",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

/// One span, packed into 24 bytes: a traced run holds millions.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub parent: u32,
    pub start: u64,
    /// Duration in ns (saturating).
    pub dur: u32,
    pub name: Name,
    pub func: Func,
    pub layer: Layer,
}

impl Span {
    fn end(&self) -> u64 {
        self.start + self.dur as u64
    }
}

/// Spans written out per run (the statistics use all of them).
const WRITE_LIMIT: usize = 250_000;

/// Records nothing until switched on; while off, `time` just runs its
/// closure.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    next_op: u32,
    on: bool,
}

impl Tracer {
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    pub fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    /// Open a span now; returns its index (a parent handle for children).
    pub fn open(&mut self, op: u32, parent: u32, layer: Layer, name: Name, func: Func) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span { op, parent, start: now_ns(), dur: 0, name, func, layer });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.dur = u32::try_from(now_ns() - s.start).unwrap_or(u32::MAX);
        }
    }

    /// Rename a span once its outcome is known (a one-sided hit or miss).
    pub fn rename(&mut self, span: u32, name: Name) {
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.name = name;
        }
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: u32,
        layer: Layer,
        name: Name,
        func: Func,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on || parent == NO_PARENT {
            return f();
        }
        let op = self.spans[parent as usize].op;
        let span = self.open(op, parent, layer, name, func);
        let out = f();
        self.close(span);
        out
    }

    /// Durations of every span named `name` serving `func`.
    pub fn durations(&self, name: Name, func: Func) -> Recorder {
        let mut r = Recorder::default();
        for s in self.spans.iter().filter(|s| s.name == name && s.func == func) {
            r.record(s.dur as u64);
        }
        r
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval that its children cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<Layer, u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c as usize];
                    (c.start.max(s.start), c.end().min(s.end()))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.layer).or_insert(0) += (s.dur as u64).saturating_sub(covered);
        }
        out
    }

    /// Write the first spans as CSV rows (one run holds millions).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span,op,parent,layer,name,fn,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().take(WRITE_LIMIT).enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(
                w,
                "{i},{},{parent},{},{},{},{},{}",
                s.op,
                s.layer.label(),
                s.name.label(),
                s.func.name(),
                s.start,
                s.end()
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(u32, Layer, u64, u64)]) -> Tracer {
        let spans = spans
            .iter()
            .map(|&(parent, layer, start, end)| Span {
                op: 1,
                parent,
                start,
                dur: (end - start) as u32,
                name: Name::Call,
                func: Func::Get,
                layer,
            })
            .collect();
        Tracer { spans, next_op: 1, on: true }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(&[
            (NO_PARENT, Layer::Bench, 0, 100),
            (0, Layer::Core, 10, 40),
            (0, Layer::Core, 40, 50),
            (0, Layer::Protocols, 60, 70),
            (3, Layer::Core, 62, 65),
        ]);
        let s = t.self_ns_by_layer();
        assert_eq!(s[&Layer::Bench], 100 - 40 - 10);
        assert_eq!(s[&Layer::Core], 30 + 10 + 3);
        assert_eq!(s[&Layer::Protocols], 10 - 3);
        assert_eq!(s.values().sum::<u64>(), 100, "self times partition the root's interval");

        // Overlapping children are covered once.
        let t = tracer(&[
            (NO_PARENT, Layer::Bench, 0, 100),
            (0, Layer::Core, 10, 40),
            (0, Layer::Core, 30, 50),
        ]);
        assert_eq!(t.self_ns_by_layer()[&Layer::Bench], 60);
    }

    #[test]
    fn spans_nest_under_their_op_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::default();
        assert_eq!(t.time(NO_PARENT, Layer::Core, Name::Call, Func::Get, || 4), 4);
        assert!(t.spans.is_empty());
        t.set_recording(true);
        let op = t.new_op();
        let root = t.open(op, NO_PARENT, Layer::Bench, Name::Op, Func::Get);
        let v = t.time(root, Layer::Core, Name::Call, Func::Get, || 5);
        t.close(root);
        assert_eq!(v, 5);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[1].op, op);
        assert_eq!(t.durations(Name::Call, Func::Get).count(), 1);
        assert_eq!(std::mem::size_of::<Span>(), 24);
    }
}
