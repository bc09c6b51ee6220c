//! Spans recorded from outside the product, around calls into each
//! layer's public functions.
//!
//! One [`Spans`] per load thread, kept in memory and written out when
//! the run ends. A span with no parent is one *operation*; everything
//! recorded under it shares its operation id. Calls that repeat under
//! the same parent (one `apply` per event, one `write_frame` per chunk)
//! are each timed individually but stored as one node — first start,
//! last end, summed busy time and a call count — so a replay pass costs
//! a handful of nodes rather than one per event. A layer's self time is
//! its nodes' busy time minus the busy time of their children.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Node {
    /// `layer.call`; the layer is the part before the first dot.
    pub name: &'static str,
    pub parent: Option<u32>,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    children: Vec<u32>,
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Spans {
    enabled: bool,
    origin: Instant,
    nodes: Vec<Node>,
    /// Open nodes with the start of their current call.
    stack: Vec<(u32, u64)>,
    /// Where the current lap started (see [`Spans::lap`]).
    lap_ns: u64,
    ops: u32,
}

impl Spans {
    /// `origin` is shared by all threads of a run so starts compare.
    pub fn new(enabled: bool, origin: Instant) -> Spans {
        Spans {
            enabled,
            origin,
            nodes: Vec::new(),
            stack: Vec::new(),
            lap_ns: 0,
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The node for a call to `name` under the innermost open span: the
    /// existing one if `name` was already called there, else a new one.
    fn node_for(&mut self, name: &'static str, now: u64) -> u32 {
        let parent = self.stack.last().map(|&(id, _)| id);
        let reuse = parent.and_then(|p| {
            self.nodes[p as usize]
                .children
                .iter()
                .copied()
                .find(|&c| std::ptr::eq(self.nodes[c as usize].name, name))
        });
        if let Some(id) = reuse {
            return id;
        }
        let id = self.nodes.len() as u32;
        let op = match parent {
            Some(p) => self.nodes[p as usize].op,
            None => {
                self.ops += 1;
                self.ops - 1
            }
        };
        self.nodes.push(Node {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 0,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.nodes[p as usize].children.push(id);
        }
        id
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.node_for(name, now);
        self.stack.push((id, now));
        Open(Some(id))
    }

    /// Start a run of back-to-back calls timed with one clock read each.
    pub fn lap_start(&mut self) {
        if self.enabled {
            self.lap_ns = self.now_ns();
        }
    }

    /// Book the time since the previous lap (or [`Spans::lap_start`]) as
    /// one call to `name`. For per-event loops, where a clock read on
    /// both sides of every call would cost as much as the call.
    pub fn lap(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let started = std::mem::replace(&mut self.lap_ns, now);
        let id = self.node_for(name, started);
        let node = &mut self.nodes[id as usize];
        node.calls += 1;
        node.busy_ns += now - started;
        node.end_ns = now;
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        let (top, started) = self.stack.pop().expect("exit without enter");
        assert_eq!(top, id, "spans must nest");
        let node = &mut self.nodes[id as usize];
        node.calls += 1;
        node.busy_ns += now - started;
        node.end_ns = now;
    }

    /// A leaf span around `f`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    #[cfg(test)]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Self time of `id`: busy time not covered by its children.
    pub fn self_ns(&self, id: u32) -> u64 {
        let node = &self.nodes[id as usize];
        let covered: u64 = node
            .children
            .iter()
            .map(|&c| self.nodes[c as usize].busy_ns)
            .sum();
        node.busy_ns.saturating_sub(covered)
    }

    #[cfg(test)]
    fn from_nodes(nodes: Vec<(&'static str, Option<u32>, u64)>) -> Spans {
        let mut s = Spans::new(true, Instant::now());
        for (i, (name, parent, busy_ns)) in nodes.into_iter().enumerate() {
            s.nodes.push(Node {
                name,
                parent,
                op: 0,
                start_ns: 0,
                end_ns: busy_ns,
                busy_ns,
                calls: 1,
                children: Vec::new(),
            });
            if let Some(p) = parent {
                s.nodes[p as usize].children.push(i as u32);
            }
        }
        s
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, summed over every thread's spans.
pub fn self_ns_by_layer(threads: &[Spans]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for spans in threads {
        for (id, node) in spans.nodes.iter().enumerate() {
            *by_layer.entry(layer_of(node.name)).or_insert(0) += spans.self_ns(id as u32);
        }
    }
    by_layer
}

/// Operations recorded (root spans) over every thread.
#[cfg(test)]
pub fn operations(threads: &[Spans]) -> u64 {
    threads.iter().map(|s| u64::from(s.ops)).sum()
}

/// The span file: one row per node,
/// `[thread, id, parent (-1 = operation root), op, name index, start_ns, end_ns, busy_ns, calls]`.
pub fn to_json(workload: &str, threads: &[Spans]) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let mut rows = Vec::new();
    for (t, spans) in threads.iter().enumerate() {
        for (id, n) in spans.nodes.iter().enumerate() {
            let name_idx = match names.iter().position(|&known| known == n.name) {
                Some(i) => i,
                None => {
                    names.push(n.name);
                    names.len() - 1
                }
            };
            let num = |v: u64| Json::Num(v as f64);
            rows.push(Json::Arr(vec![
                num(t as u64),
                num(id as u64),
                Json::Num(n.parent.map_or(-1.0, f64::from)),
                num(u64::from(n.op)),
                num(name_idx as u64),
                num(n.start_ns),
                num(n.end_ns),
                num(n.busy_ns),
                num(n.calls),
            ]));
        }
    }
    let self_ns = self_ns_by_layer(threads)
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), Json::Num(ns as f64)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("threads".into(), Json::Num(threads.len() as f64)),
        (
            "columns".into(),
            Json::Str("thread,id,parent,op,name,start_ns,end_ns,busy_ns,calls".into()),
        ),
        (
            "names".into(),
            Json::Arr(names.iter().map(|n| Json::Str((*n).into())).collect()),
        ),
        ("self_ns_by_layer".into(), Json::Obj(self_ns)),
        ("spans".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // op(100) ─┬─ core.decode(30)
        //          ├─ tsan.apply(50) ── core.inner(20)
        //          └─ (10 left to the harness)
        let s = Spans::from_nodes(vec![
            ("harness.op", None, 100),
            ("core.decode", Some(0), 30),
            ("tsan.apply", Some(0), 50),
            ("core.inner", Some(2), 20),
        ]);
        assert_eq!(s.self_ns(0), 20);
        assert_eq!(s.self_ns(2), 30);
        let by_layer = self_ns_by_layer(&[s]);
        assert_eq!(by_layer["harness"], 20);
        assert_eq!(by_layer["core"], 50);
        assert_eq!(by_layer["tsan"], 30);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn repeated_calls_coalesce_under_one_parent() {
        let mut s = Spans::new(true, Instant::now());
        for _ in 0..2 {
            let op = s.enter("harness.op");
            for _ in 0..5 {
                s.leaf("tsan.apply", || std::hint::black_box(1 + 1));
            }
            s.leaf("core.summary", || ());
            s.exit(op);
        }
        assert_eq!(operations(std::slice::from_ref(&s)), 2);
        assert_eq!(s.nodes().len(), 6, "two ops × (root + apply + summary)");
        let apply = &s.nodes()[1];
        assert_eq!((apply.calls, apply.parent, apply.op), (5, Some(0), 0));
        assert_eq!(s.nodes()[4].op, 1);
        assert!(apply.busy_ns <= s.nodes()[0].busy_ns);
    }

    #[test]
    fn laps_split_a_loop_without_gaps() {
        let mut s = Spans::new(true, Instant::now());
        let op = s.enter("harness.op");
        s.lap_start();
        for _ in 0..3 {
            std::hint::black_box(1 + 1);
            s.lap("core.decode");
            std::hint::black_box(2 + 2);
            s.lap("tsan.apply");
        }
        s.exit(op);
        let (decode, apply) = (&s.nodes()[1], &s.nodes()[2]);
        assert_eq!((decode.calls, apply.calls), (3, 3));
        assert_eq!(
            apply.end_ns - decode.start_ns,
            decode.busy_ns + apply.busy_ns
        );
        assert!(decode.busy_ns + apply.busy_ns <= s.nodes()[0].busy_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = Spans::new(false, Instant::now());
        let op = s.enter("harness.op");
        assert_eq!(s.leaf("tsan.apply", || 7), 7);
        s.lap_start();
        s.lap("core.decode");
        s.exit(op);
        assert!(s.nodes().is_empty());
    }
}
