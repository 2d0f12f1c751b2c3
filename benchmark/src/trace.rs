//! Spans recorded by the benchmark's own code around each public call it
//! makes into the simulator. Kept in memory, written out at exit.
//!
//! A span is `{id, parent, req, name, t0_ns, t1_ns}`; spans of one request
//! (a matrix cell, a session, a `getrandom` call) share `req`. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// Enclosing span, 0 at the root.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub t0_ns: u64,
    pub t1_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns - self.t0_ns
    }
}

/// One thread's span recorder. A disabled tracer runs the closure and
/// records nothing, so traced and untraced rounds share their code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id this recorder hands out, so recorders of
    /// different threads never collide.
    lane: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            lane: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread: same clock, its own id lane, rooted
    /// under this recorder's current span.
    pub fn fork(&self, lane: u64) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            lane: lane << 32,
            stack: self.stack.last().copied().into_iter().collect(),
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a forked recorder collected.
    pub fn join(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.lane + self.spans.len() as u64 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let slot = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            t0_ns: self.epoch.elapsed().as_nanos() as u64,
            t1_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[slot].t1_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"t0_ns\": {}, \"t1_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.t0_ns, s.t1_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Self time per span id: duration minus the part covered by children.
/// Children on other threads may overlap each other, so the covered part
/// is the union of their intervals, not the sum.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.t0_ns, s.t1_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered_ns(kids, s.t0_ns, s.t1_ns))
        })
        .collect()
}

/// Per span name: every duration, and the summed self time.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let self_ns = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.durations_ns.push(s.dur_ns());
        entry.self_ns += self_ns[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, t0_ns: u64, t1_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            t0_ns,
            t1_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > a 10..60 > b 20..30; root also > c 70..90.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 2, "b", 20, 30),
            span(4, 1, "c", 70, 90),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 100 - 50 - 20, "grandchildren are inside children");
        assert_eq!(t[&2], 50 - 10);
        assert_eq!(t[&3], 10);
        assert_eq!(t[&4], 20);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two client threads overlap inside one round; one child leaks
        // past the parent's end and is clipped.
        let spans = [
            span(1, 0, "round", 0, 100),
            span(2, 1, "t0", 10, 50),
            span(3, 1, "t1", 30, 80),
            span(4, 1, "t1", 40, 45),
            span(5, 1, "late", 95, 120),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 100 - 70 - 5);
        let names = by_name(&spans);
        assert_eq!(names["t1"].durations_ns, vec![50, 5]);
        assert_eq!(names["t1"].self_ns, 55);
    }

    #[test]
    fn recorder_nests_forks_and_stays_silent_when_off() {
        let mut tr = Tracer::new(true);
        let got = tr.span("outer", 7, |tr| {
            let mut worker = tr.fork(1);
            worker.span("inner", 7, |_| ());
            tr.span("sibling", 7, |_| ());
            tr.join(worker);
            42
        });
        assert_eq!(got, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert_ne!(inner.id, sibling.id, "lanes keep ids apart");
        assert!(outer.t0_ns <= inner.t0_ns && inner.t1_ns <= outer.t1_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |tr| tr.span("y", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
