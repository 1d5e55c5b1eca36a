//! Turns a run's spans into per-layer time: operator self time, hand-over
//! plumbing, queue sends, source and sink time, per thread.

use crate::inputs::STAGES;
use crate::stats::{self_times, Span};
use crate::trace::{Tracer, PUSH, SINK, SOURCE};
use std::collections::{BTreeMap, BTreeSet};

/// Time of one thread, split by what its spans were doing. All fields
/// are nanoseconds of self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadTime {
    /// Inside Figure 5 operators.
    pub ops: u64,
    /// Pushes that led into the next stage or the final sink: the
    /// streaming loop's hand-over between stages.
    pub handover: u64,
    /// Pushes with nothing traced below them: a chain's output leaving
    /// through a runner's queue.
    pub queue_send: u64,
    /// Inside `Source::next_record`.
    pub source: u64,
    /// Inside the benchmark's final sink.
    pub sink: u64,
    /// Number of source records pulled on this thread.
    pub source_calls: u64,
    /// Top-level `saxanomaly` calls: records the thread's chain took in.
    pub chain_records: u64,
    /// First span start and last span end.
    pub first: u64,
    /// Last span end.
    pub last: u64,
}

impl ThreadTime {
    /// Traced time that is work: operators plus hand-over plumbing.
    pub fn busy(&self) -> u64 {
        self.ops + self.handover
    }

    /// All traced self time on the thread (equals the sum of its
    /// top-level spans).
    pub fn traced(&self) -> u64 {
        self.ops + self.handover + self.queue_send + self.source + self.sink
    }
}

/// Per-layer time of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Self time per Figure 5 stage.
    pub op_self: BTreeMap<String, u64>,
    /// Per-thread split.
    pub threads: BTreeMap<u16, ThreadTime>,
}

impl Summary {
    /// Summarizes `spans`, whose names are registered in `tracer`.
    pub fn of(spans: &[Span], tracer: &Tracer) -> Summary {
        let selfs = self_times(spans);
        let parents: BTreeSet<u64> = spans.iter().map(|s| s.parent).collect();
        let op_names: BTreeMap<u16, &str> =
            STAGES.iter().map(|&n| (tracer.name_id(n), n)).collect();
        let push = tracer.name_id(PUSH);
        let source = tracer.name_id(SOURCE);
        let sink = tracer.name_id(SINK);
        let head = tracer.name_id(STAGES[0]);
        let mut out = Summary::default();
        for s in spans {
            let own = selfs[&s.id];
            let t = out.threads.entry(s.thread).or_insert(ThreadTime {
                first: s.start,
                ..ThreadTime::default()
            });
            t.first = t.first.min(s.start);
            t.last = t.last.max(s.end);
            if let Some(name) = op_names.get(&s.name) {
                t.ops += own;
                *out.op_self.entry((*name).to_string()).or_default() += own;
                if s.name == head && s.parent == 0 {
                    t.chain_records += 1;
                }
            } else if s.name == push {
                if parents.contains(&s.id) {
                    t.handover += own;
                } else {
                    t.queue_send += own;
                }
            } else if s.name == source {
                t.source += own;
                t.source_calls += 1;
            } else if s.name == sink {
                t.sink += own;
            }
        }
        out
    }

    /// Totals over every thread.
    pub fn total(&self) -> ThreadTime {
        let mut t = ThreadTime::default();
        for v in self.threads.values() {
            t.ops += v.ops;
            t.handover += v.handover;
            t.queue_send += v.queue_send;
            t.source += v.source;
            t.sink += v.sink;
            t.source_calls += v.source_calls;
            t.chain_records += v.chain_records;
        }
        t
    }

    /// Threads that ran a Figure 5 chain.
    pub fn chain_threads(&self) -> Vec<ThreadTime> {
        self.threads
            .values()
            .filter(|t| t.chain_records > 0)
            .copied()
            .collect()
    }

    /// Checks that no thread's traced parts exceed `wall_ns`: the parts
    /// plus a non-negative untraced residual sum to the wall clock.
    /// Returns the first thread that breaks it.
    pub fn check_parts_within(&self, wall_ns: u64) -> Result<(), String> {
        let slack = wall_ns / 1000 + 1_000;
        for (id, t) in &self.threads {
            if t.traced() > wall_ns + slack {
                return Err(format!(
                    "thread {id}: traced parts {} ns exceed wall {wall_ns} ns",
                    t.traced()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_thread_time_by_layer() {
        let tracer = Tracer::new();
        let sax = tracer.name_id("saxanomaly");
        let trig = tracer.name_id("trigger");
        let push = tracer.name_id(PUSH);
        let sink = tracer.name_id(SINK);
        let source = tracer.name_id(SOURCE);
        // Times in units of 10 µs, so the check's clock slack (1 µs)
        // stays below one unit.
        const U: u64 = 10_000;
        let sp = |id, parent, name, start: u64, end: u64| Span {
            id,
            parent,
            name,
            thread: 1,
            clip: 0,
            start: start * U,
            end: end * U,
        };
        let spans = [
            sp(1, 0, source, 0, 5),
            sp(2, 0, sax, 10, 100),
            sp(3, 2, push, 20, 90),
            sp(4, 3, trig, 25, 85),
            sp(5, 4, push, 30, 80),
            sp(6, 5, sink, 35, 75),
            sp(7, 4, push, 82, 84), // leaves through a queue
        ];
        let s = Summary::of(&spans, &tracer);
        let t = s.threads[&1];
        assert_eq!(t.source, 5 * U);
        assert_eq!(t.ops, ((90 - 70) + (60 - 50 - 2)) * U);
        assert_eq!(t.handover, ((70 - 60) + (50 - 40)) * U);
        assert_eq!(t.queue_send, 2 * U);
        assert_eq!(t.sink, 40 * U);
        assert_eq!(t.chain_records, 1);
        assert_eq!(t.traced(), (5 + 90) * U);
        assert_eq!(s.op_self["saxanomaly"], 20 * U);
        assert_eq!(s.op_self["trigger"], 8 * U);
        assert!(s.check_parts_within(100 * U).is_ok());
        assert!(s.check_parts_within(90 * U).is_err());
    }
}
