//! Spans recorded from the benchmark's own files, around each call into a
//! crate.
//!
//! A span is a name (`<crate>.<function>`), an id shared by the spans of
//! one packet / request / shard, a start, an end and the span that was
//! open when it started. Self time is duration minus the part its child
//! spans cover; because every span nests inside the window's root span,
//! the self times of all names add up to the traced wall time exactly.
//!
//! Per-name totals are kept for every span; the raw list is capped so a
//! run that makes ten million calls still fits in memory and on disk.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the span file (totals cover every span regardless).
const RAW_CAP: usize = 50_000;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the raw list, `u32::MAX` for a root
    /// or when the parent fell beyond the cap.
    pub parent: u32,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    raw: u32,
}

#[derive(Default)]
pub struct Recorder {
    stack: Vec<Open>,
    raw: Vec<Span>,
    raw_dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl Recorder {
    pub fn open_at(&mut self, name: &'static str, id: u64, now_ns: u64) {
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.raw);
        let raw = if self.raw.len() < RAW_CAP {
            self.raw.push(Span {
                name,
                id,
                start_ns: now_ns,
                end_ns: now_ns,
                parent,
            });
            (self.raw.len() - 1) as u32
        } else {
            self.raw_dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start_ns: now_ns,
            child_ns: 0,
            raw,
        });
    }

    pub fn close_at(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("close without an open span");
        let dur = now_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if open.raw != NO_PARENT {
            self.raw[open.raw as usize].end_ns = now_ns;
        }
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over the spans of one crate (`<layer>.…`), ns.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// The span file: totals for every name, then the capped raw list.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"raw_spans_dropped\":{},\n\"totals\":[",
            self.raw_dropped
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("],\n\"spans\":[");
        for (i, sp) in self.raw.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if sp.parent == NO_PARENT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                sp.name, sp.id, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
    static EPOCH: Cell<Option<Instant>> = const { Cell::new(None) };
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get().unwrap_or_else(|| {
        let e = Instant::now();
        EPOCH.set(Some(e));
        e
    });
    epoch.elapsed().as_nanos() as u64
}

/// Start recording on this thread (every workload drives its crates from
/// one thread).
pub fn enable() {
    ON.set(true);
}

pub fn enabled() -> bool {
    ON.get()
}

/// Stop recording and hand over what was recorded.
pub fn finish() -> Recorder {
    ON.set(false);
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Closes its span when dropped.
pub struct SpanGuard(bool);

/// Open a span; a no-op costing one thread-local read when tracing is off.
#[inline]
pub fn span(name: &'static str, id: u64) -> SpanGuard {
    if !ON.get() {
        return SpanGuard(false);
    }
    REC.with(|r| r.borrow_mut().open_at(name, id, now_ns()));
    SpanGuard(true)
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            REC.with(|r| r.borrow_mut().close_at(now_ns()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut r = Recorder::default();
        r.open_at("bench.window", 0, 0);
        r.open_at("emu.run_until", 1, 10);
        r.open_at("node.on_datagram", 7, 20);
        r.close_at(50); // 30 ns, no children
        r.open_at("node.on_datagram", 8, 60);
        r.close_at(70); // 10 ns
        r.close_at(100); // emu: 90 ns, children cover 40 → self 50
        r.close_at(120); // window: 120 ns, child covers 90 → self 30

        assert_eq!(
            r.total("node.on_datagram"),
            Total {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(
            r.total("emu.run_until"),
            Total {
                count: 1,
                total_ns: 90,
                self_ns: 50
            }
        );
        assert_eq!(
            r.total("bench.window"),
            Total {
                count: 1,
                total_ns: 120,
                self_ns: 30
            }
        );
        // Self times of all names add up to the root's duration.
        let sum: u64 = r.totals().values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 120);
        assert_eq!(r.layer_self_ns("node"), 40);
    }

    #[test]
    fn raw_spans_link_to_their_parent() {
        let mut r = Recorder::default();
        r.open_at("a.root", 0, 0);
        r.open_at("b.child", 5, 1);
        r.close_at(2);
        r.close_at(3);
        let json = r.to_json("w", 1);
        assert!(
            json.contains("\"name\":\"b.child\",\"id\":5,\"start_ns\":1,\"end_ns\":2,\"parent\":0")
        );
        assert!(json
            .contains("\"name\":\"a.root\",\"id\":0,\"start_ns\":0,\"end_ns\":3,\"parent\":null"));
    }

    #[test]
    fn raw_list_is_capped_but_totals_are_not() {
        let mut r = Recorder::default();
        r.open_at("a.root", 0, 0);
        for i in 0..(RAW_CAP as u64 + 10) {
            r.open_at("b.leaf", i, i);
            r.close_at(i + 1);
        }
        r.close_at(RAW_CAP as u64 + 20);
        assert_eq!(r.total("b.leaf").count, RAW_CAP as u64 + 10);
        assert_eq!(r.raw.len(), RAW_CAP);
        assert_eq!(r.raw_dropped, 11);
    }
}
