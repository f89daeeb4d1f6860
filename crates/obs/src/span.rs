//! Hierarchical span tracing.
//!
//! A [`TraceBuf`] records nested spans — name, detail, start, duration,
//! parent, logical lane (worker) id — into a plain `Vec` owned by exactly
//! one thread, so recording is lock-free by construction. The pipeline
//! hands each parallel worker a [`TraceBuf::fork`]ed child buffer; at the
//! join the children are [`TraceBuf::merge`]d back in the deterministic
//! shard order the results themselves are merged in, with child root
//! spans re-parented under whatever span the parent has open.
//!
//! `TraceBuf` is an enum with an [`TraceBuf::Off`] variant rather than a
//! trait object: a disabled trace costs one branch per event and
//! allocates nothing.
//!
//! Two exports:
//!
//! * [`TraceBuf::chrome_json`] — Chrome trace-event JSON (`ph: "X"`
//!   complete events), loadable in Perfetto / `chrome://tracing`;
//! * [`TraceBuf::canonical_json`] — a normalized form with timings and
//!   lanes dropped and spans sorted by `(name, detail, parent)`, which is
//!   byte-identical across thread counts and is what the determinism
//!   tests compare.

use crate::json::{Arr, Obj};
use std::time::Instant;

/// Index of a span inside its buffer, returned by [`TraceBuf::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Sentinel parent index for root spans.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (the taxonomy: `pta`, `pta.func`, `seg.func`,
    /// `detect`, `detect.source`, `smt.query`, …).
    pub name: &'static str,
    /// Instance detail (function name, checker name, `src→sink`, …).
    pub detail: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while still open).
    pub dur_ns: u64,
    /// Index of the parent span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    /// Logical lane: 0 for the coordinating thread, `shard index + 1`
    /// for workers. Deterministic, unlike OS thread ids.
    pub lane: u32,
}

/// The live state of an enabled trace.
#[derive(Debug, Clone)]
pub struct TraceData {
    epoch: Instant,
    lane: u32,
    records: Vec<SpanRecord>,
    /// Indices of currently-open spans (innermost last).
    stack: Vec<u32>,
}

/// A span recorder: either a no-op or an owned, lock-free buffer.
#[derive(Debug, Clone, Default)]
pub enum TraceBuf {
    /// Recording disabled: every call is a branch and a return.
    #[default]
    Off,
    /// Recording enabled.
    On(TraceData),
}

impl TraceBuf {
    /// A disabled recorder.
    pub fn off() -> Self {
        TraceBuf::Off
    }

    /// A new enabled root recorder; its creation instant is the epoch all
    /// timestamps are relative to.
    pub fn on() -> Self {
        TraceBuf::On(TraceData {
            epoch: Instant::now(),
            lane: 0,
            records: Vec::new(),
            stack: Vec::new(),
        })
    }

    /// A fresh empty buffer sharing this trace's epoch, for a parallel
    /// worker. Forking [`TraceBuf::Off`] yields `Off`.
    pub fn fork(&self, lane: u32) -> TraceBuf {
        match self {
            TraceBuf::Off => TraceBuf::Off,
            TraceBuf::On(d) => TraceBuf::On(TraceData {
                epoch: d.epoch,
                lane,
                records: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// Opens a span nested under the innermost open span.
    pub fn open(&mut self, name: &'static str, detail: impl Into<String>) -> SpanId {
        match self {
            TraceBuf::Off => SpanId(NO_PARENT),
            TraceBuf::On(d) => {
                let idx = u32::try_from(d.records.len()).expect("span count fits u32");
                let parent = d.stack.last().copied().unwrap_or(NO_PARENT);
                d.records.push(SpanRecord {
                    name,
                    detail: detail.into(),
                    start_ns: d.epoch.elapsed().as_nanos() as u64,
                    dur_ns: 0,
                    parent,
                    lane: d.lane,
                });
                d.stack.push(idx);
                SpanId(idx)
            }
        }
    }

    /// Closes `span` (and, defensively, anything opened after it that was
    /// left open).
    pub fn close(&mut self, span: SpanId) {
        if let TraceBuf::On(d) = self {
            if span.0 == NO_PARENT {
                return;
            }
            while let Some(top) = d.stack.pop() {
                let now = d.epoch.elapsed().as_nanos() as u64;
                let r = &mut d.records[top as usize];
                r.dur_ns = now.saturating_sub(r.start_ns);
                if top == span.0 {
                    break;
                }
            }
        }
    }

    /// Runs `f` inside a span (convenience for straight-line stages).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: impl Into<String>,
        f: impl FnOnce(&mut TraceBuf) -> T,
    ) -> T {
        let id = self.open(name, detail);
        let out = f(self);
        self.close(id);
        out
    }

    /// Appends a child buffer's records, re-parenting the child's root
    /// spans under this buffer's innermost open span. Call at the same
    /// deterministic join point the worker's results are merged at.
    pub fn merge(&mut self, child: TraceBuf) {
        let (TraceBuf::On(d), TraceBuf::On(c)) = (&mut *self, child) else {
            return;
        };
        let base = u32::try_from(d.records.len()).expect("span count fits u32");
        let join_parent = d.stack.last().copied().unwrap_or(NO_PARENT);
        for mut r in c.records {
            r.parent = if r.parent == NO_PARENT {
                join_parent
            } else {
                r.parent + base
            };
            d.records.push(r);
        }
    }

    /// Maps `work` over `items` on up to `threads` scoped workers and
    /// returns one result per item, in input order.
    ///
    /// This is the one fan-out every parallel stage goes through, and the
    /// contract their thread-count byte-identity rests on:
    ///
    /// * `items` is cut into contiguous shards of `ceil(len / threads)`;
    ///   shard `i` runs on its own worker with a fresh `init()` state and
    ///   a [`TraceBuf::fork`]ed lane `i + 1`;
    /// * results are concatenated, and lanes [`TraceBuf::merge`]d, in
    ///   shard order — so when `work`'s result depends only on its item
    ///   (never on what the shard's state saw before), the output and the
    ///   canonical trace are the same for every `threads`;
    /// * `threads <= 1` or a single item runs the same steps on the
    ///   calling thread (lane 1); empty input returns without `init`;
    /// * a panicking worker is re-raised here once every shard has been
    ///   joined.
    pub fn shard_map<T: Send, S, R: Send>(
        &mut self,
        items: &mut [T],
        threads: usize,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, &mut T, &mut TraceBuf) -> R + Sync,
    ) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let run = |shard_idx: usize, shard: &mut [T], parent: &TraceBuf| {
            let mut lane = parent.fork(shard_idx as u32 + 1);
            let mut state = init();
            let results: Vec<R> = shard
                .iter_mut()
                .map(|item| work(&mut state, item, &mut lane))
                .collect();
            (results, lane)
        };
        let shards = if threads <= 1 || items.len() == 1 {
            vec![run(0, items, self)]
        } else {
            let chunk = items.len().div_ceil(threads);
            let (run, parent) = (&run, &*self);
            std::thread::scope(|s| {
                let handles: Vec<_> = items
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(i, shard)| s.spawn(move || run(i, shard, parent)))
                    .collect();
                // Unwinding out of the scope still joins the other shards.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        let mut out = Vec::with_capacity(items.len());
        for (results, lane) in shards {
            out.extend(results);
            self.merge(lane);
        }
        out
    }

    /// The recorded spans (empty when off).
    pub fn records(&self) -> &[SpanRecord] {
        match self {
            TraceBuf::Off => &[],
            TraceBuf::On(d) => &d.records,
        }
    }

    /// Chrome trace-event JSON (`{"traceEvents":[...]}`): one complete
    /// (`ph:"X"`) event per span, timestamps in microseconds, `tid` = the
    /// logical lane. Load the file in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut events = Arr::new();
        for r in self.records() {
            let mut e = Obj::new();
            e.str("name", r.name)
                .str("cat", "pinpoint")
                .str("ph", "X")
                .f64("ts", r.start_ns as f64 / 1000.0)
                .f64("dur", r.dur_ns as f64 / 1000.0)
                .u64("pid", 1)
                .u64("tid", u64::from(r.lane));
            if !r.detail.is_empty() {
                let mut args = Obj::new();
                args.str("detail", &r.detail);
                e.raw("args", &args.finish());
            }
            events.raw(&e.finish());
        }
        let mut doc = Obj::new();
        doc.raw("traceEvents", &events.finish())
            .str("displayTimeUnit", "ms");
        doc.finish()
    }

    /// Normalized trace: timestamps, durations and lanes dropped; each
    /// span keyed by `(name, detail, parent name, parent detail)` and the
    /// whole list sorted. The result depends only on *what work was
    /// done*, so it is byte-identical across thread counts.
    pub fn canonical_json(&self) -> String {
        let records = self.records();
        let mut rows: Vec<String> = records
            .iter()
            .map(|r| {
                let parent = if r.parent == NO_PARENT {
                    String::new()
                } else {
                    let p = &records[r.parent as usize];
                    if p.detail.is_empty() {
                        p.name.to_string()
                    } else {
                        format!("{}[{}]", p.name, p.detail)
                    }
                };
                let mut o = Obj::new();
                o.str("name", r.name)
                    .str("detail", &r.detail)
                    .str("parent", &parent);
                o.finish()
            })
            .collect();
        rows.sort_unstable();
        let mut arr = Arr::new();
        for row in &rows {
            arr.raw(row);
        }
        arr.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = TraceBuf::off();
        let s = t.open("pta", "");
        t.close(s);
        assert!(t.records().is_empty());
        assert_eq!(
            t.chrome_json(),
            r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
        );
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = TraceBuf::on();
        let a = t.open("analysis", "");
        let b = t.open("pta", "");
        let c = t.open("pta.func", "main");
        t.close(c);
        t.close(b);
        let d = t.open("seg", "");
        t.close(d);
        t.close(a);
        let r = t.records();
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].parent, super::NO_PARENT);
        assert_eq!(r[1].parent, 0);
        assert_eq!(r[2].parent, 1);
        assert_eq!(r[3].parent, 0, "seg is a sibling of pta under analysis");
        assert!(r.iter().all(|x| x.lane == 0));
    }

    #[test]
    fn close_is_defensive_about_leftovers() {
        let mut t = TraceBuf::on();
        let outer = t.open("outer", "");
        let _leaked = t.open("inner", "");
        t.close(outer); // inner left open: closed implicitly
        assert!(t.records().iter().all(|r| r.dur_ns > 0 || r.start_ns > 0));
        let more = t.open("after", "");
        t.close(more);
        assert_eq!(t.records()[2].parent, super::NO_PARENT);
    }

    #[test]
    fn merge_reparents_children_under_open_span() {
        let mut t = TraceBuf::on();
        let stage = t.open("detect", "uaf");
        let mut w1 = t.fork(1);
        let s = w1.open("detect.source", "main@b0.i1");
        w1.close(s);
        let mut w2 = t.fork(2);
        let s = w2.open("detect.source", "main@b0.i2");
        w2.close(s);
        t.merge(w1);
        t.merge(w2);
        t.close(stage);
        let r = t.records();
        assert_eq!(r.len(), 3);
        assert_eq!(r[1].parent, 0);
        assert_eq!(r[2].parent, 0);
        assert_eq!((r[1].lane, r[2].lane), (1, 2));
    }

    #[test]
    fn canonical_json_is_sharding_invariant() {
        // The same logical work recorded on one lane vs split over two
        // lanes must normalize identically.
        let run = |shards: usize| {
            let mut t = TraceBuf::on();
            let stage = t.open("detect", "uaf");
            let details = ["a", "b", "c", "d"];
            let mut bufs: Vec<TraceBuf> = (0..shards).map(|i| t.fork(i as u32 + 1)).collect();
            for (i, d) in details.iter().enumerate() {
                let b = &mut bufs[i % shards];
                let s = b.open("detect.source", *d);
                b.close(s);
            }
            for b in bufs {
                t.merge(b);
            }
            t.close(stage);
            t.canonical_json()
        };
        assert_eq!(run(1), run(2));
        assert_ne!(run(1), TraceBuf::on().canonical_json());
    }

    /// Doubles `0..len` through `shard_map`, one `item` span per element.
    fn shard_doubles(len: u32, threads: usize) -> (Vec<u32>, TraceBuf) {
        let mut t = TraceBuf::on();
        let mut items: Vec<u32> = (0..len).collect();
        let out = t.shard_map(
            &mut items,
            threads,
            || (),
            |(), item, lane| {
                let s = lane.open("item", item.to_string());
                lane.close(s);
                *item * 2
            },
        );
        (out, t)
    }

    #[test]
    fn shard_map_keeps_input_order_and_merges_lanes_in_shard_order() {
        let len = 7u32;
        let expected: Vec<u32> = (0..len).map(|i| i * 2).collect();
        let (_, serial) = shard_doubles(len, 1);
        for threads in [1usize, 3, len as usize + 1] {
            let (out, t) = shard_doubles(len, threads);
            assert_eq!(out, expected, "threads={threads}");
            // Records sit in item order, so lanes were merged in shard
            // order; lane ids are the contiguous shard numbering.
            let details: Vec<&str> = t.records().iter().map(|r| r.detail.as_str()).collect();
            assert_eq!(details, ["0", "1", "2", "3", "4", "5", "6"]);
            let chunk = (len as usize).div_ceil(threads);
            for (i, r) in t.records().iter().enumerate() {
                assert_eq!(r.lane as usize, i / chunk + 1, "threads={threads}");
            }
            assert_eq!(t.canonical_json(), serial.canonical_json());
        }
    }

    #[test]
    fn shard_map_on_empty_input_never_calls_init() {
        let mut t = TraceBuf::on();
        let out: Vec<u32> = t.shard_map(
            &mut Vec::<u32>::new(),
            4,
            || -> u32 { panic!("no shard, no state") },
            |_, item, _| *item,
        );
        assert!(out.is_empty());
        assert!(t.records().is_empty());
    }

    #[test]
    #[should_panic(expected = "shard 2 failed")]
    fn shard_map_propagates_a_worker_panic() {
        let mut items = [0u32, 1, 2, 3];
        TraceBuf::off().shard_map(
            &mut items,
            4,
            || (),
            |(), item, _| assert!(*item != 2, "shard 2 failed"),
        );
    }

    #[test]
    fn chrome_json_has_trace_events() {
        let mut t = TraceBuf::on();
        let s = t.open("pta", "");
        t.close(s);
        let doc = t.chrome_json();
        assert!(doc.starts_with(r#"{"traceEvents":["#), "{doc}");
        assert!(doc.contains(r#""name":"pta""#), "{doc}");
        assert!(doc.contains("\"ph\":\"X\""));
    }
}
