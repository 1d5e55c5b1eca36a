//! Tracing from outside the program: delegating wrappers time the calls
//! into each layer's public functions (`Operator::on_record`,
//! `Sink::push`, `Source::next_record`) and keep the spans in memory.
//!
//! Every wrapper owns its span buffer and hands it to the shared
//! [`Tracer`] when dropped, so recording takes no lock. Parent links come
//! from a per-thread stack of open spans: a downstream operator's
//! `on_record` runs inside the upstream operator's `Sink::push`, so its
//! span nests there, and self time is span minus direct children
//! ([`crate::stats::self_times`]).

use crate::stats::Span;
use dynamic_river::analyze::Signature;
use dynamic_river::telemetry::EventSink;
use dynamic_river::{Operator, PipelineError, Record, RecordKind, Sink};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Context key the fleet tags each clip's `OpenScope` with: the clip's
/// schedule index.
pub const CLIP_TAG: &str = "bench_clip";

/// Span name of a `Source::next_record` call.
pub const SOURCE: &str = "source";
/// Span name of a call into the benchmark's final sink.
pub const SINK: &str = "sink";
/// Span name of an operator's `Sink::push` call into the next stage.
pub const PUSH: &str = "push";

/// Nanoseconds since the process-wide trace epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_THREAD: AtomicU16 = AtomicU16::new(0);

thread_local! {
    static THREAD: u16 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Per-stage counts of audio records in and out, gathered by the
/// operator wrappers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AudioCounts {
    /// Audio records that entered the stage.
    pub audio_in: u64,
    /// Audio records the stage emitted.
    pub audio_out: u64,
}

#[derive(Default)]
struct Collected {
    spans: Vec<Span>,
    audio: Vec<(u16, AudioCounts)>,
}

/// The shared end of a trace: a name table and everything the wrappers
/// handed back.
#[derive(Clone, Default)]
pub struct Tracer {
    names: Arc<Mutex<Vec<String>>>,
    collected: Arc<Mutex<Collected>>,
}

impl Tracer {
    /// A fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of span name `name`, registered on first use.
    pub fn name_id(&self, name: &str) -> u16 {
        let mut names = self.names.lock().expect("trace name table");
        let id = names.iter().position(|n| n == name).unwrap_or_else(|| {
            names.push(name.to_string());
            names.len() - 1
        });
        u16::try_from(id).expect("fewer than 65536 span names")
    }

    /// The name registered as `id`.
    pub fn name(&self, id: u16) -> String {
        self.names.lock().expect("trace name table")[usize::from(id)].clone()
    }

    /// A recorder writing into this trace.
    pub fn recorder(&self) -> Recorder {
        Recorder {
            tracer: self.clone(),
            spans: Vec::new(),
        }
    }

    /// Removes and returns every span handed back so far, in start order.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut self.collected.lock().expect("trace buffer").spans);
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Removes and returns the audio counts per span name, summed over
    /// every wrapper of that stage.
    pub fn take_audio(&self) -> Vec<(String, AudioCounts)> {
        let audio = std::mem::take(&mut self.collected.lock().expect("trace buffer").audio);
        let mut sums: Vec<(String, AudioCounts)> = Vec::new();
        for (id, c) in audio {
            let name = self.name(id);
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some((_, s)) => {
                    s.audio_in += c.audio_in;
                    s.audio_out += c.audio_out;
                }
                None => sums.push((name, c)),
            }
        }
        sums
    }

    /// Writes `spans` as tab-separated text: id, parent, name, thread,
    /// clip, start and end in nanoseconds.
    pub fn write_tsv(&self, spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let names = self.names.lock().expect("trace name table").clone();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tthread\tclip\tstart_ns\tend_ns")?;
        for s in spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                names[usize::from(s.name)],
                s.thread,
                s.clip,
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

/// An open span: returned by [`Recorder::enter`], closed by
/// [`Recorder::exit`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    start: u64,
}

/// A span buffer owned by one wrapper; flushed into its [`Tracer`] on
/// drop.
pub struct Recorder {
    tracer: Tracer,
    spans: Vec<Span>,
}

impl Recorder {
    /// Opens a span on the calling thread.
    pub fn enter() -> Open {
        let thread = THREAD.with(|t| *t);
        let id = NEXT_ID.with(|n| {
            let next = n.get() + 1;
            n.set(next);
            (u64::from(thread) + 1) << 40 | next
        });
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Open {
            id,
            parent,
            start: now_ns(),
        }
    }

    /// Closes `open`, recording it under span name `name` for `clip`.
    pub fn exit(&mut self, open: Open, name: u16, clip: u32) {
        let end = now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name,
            thread: THREAD.with(|t| *t),
            clip,
            start: open.start,
            end,
        });
    }

    /// The trace this recorder writes into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // A poisoned buffer means a recording thread panicked; that run
        // has already failed, so its spans may be dropped.
        if let Ok(mut c) = self.tracer.collected.lock() {
            c.spans.append(&mut self.spans);
        }
    }
}

/// Tracks which clip a stream is in: the schedule index carried in the
/// clip's `OpenScope` context, or else the clip's ordinal in this stream
/// mapped to the run-wide ordinal (`ordinal * stride + offset`, which is
/// how a round-robin splitter deals clips to worker `offset` of
/// `stride`).
#[derive(Clone, Copy)]
pub struct ClipCursor {
    current: u32,
    seen: u32,
    stride: u32,
    offset: u32,
}

impl ClipCursor {
    /// A cursor for lane `offset` of `stride` round-robin lanes.
    pub fn new(offset: u32, stride: u32) -> Self {
        ClipCursor {
            current: 0,
            seen: 0,
            stride: stride.max(1),
            offset,
        }
    }

    /// Advances on a top-level clip `OpenScope`; returns the clip id the
    /// record belongs to.
    pub fn observe(&mut self, record: &Record) -> u32 {
        if record.kind == RecordKind::OpenScope && record.scope_depth == 0 {
            self.current = record
                .payload
                .context(CLIP_TAG)
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.seen * self.stride + self.offset);
            self.seen += 1;
        }
        self.current
    }
}

/// A delegating [`Operator`] that records one span per `on_record` call
/// and one per `Sink::push` the operator makes, and counts audio records
/// in and out. Name, signature, events and `clone_op` pass through, so
/// the chain the runners see is the one they would see unwrapped.
pub struct TracedOp {
    inner: Box<dyn Operator>,
    name: u16,
    push: u16,
    rec: Recorder,
    cursor: ClipCursor,
    audio: AudioCounts,
}

impl TracedOp {
    /// Wraps `inner`, recording into `tracer`, clip ids from `cursor`.
    pub fn new(inner: Box<dyn Operator>, tracer: &Tracer, cursor: ClipCursor) -> Self {
        TracedOp {
            name: tracer.name_id(inner.name()),
            push: tracer.name_id(PUSH),
            inner,
            rec: tracer.recorder(),
            cursor,
            audio: AudioCounts::default(),
        }
    }
}

impl Drop for TracedOp {
    fn drop(&mut self) {
        if let Ok(mut c) = self.rec.tracer.collected.lock() {
            c.audio.push((self.name, self.audio));
        }
    }
}

/// The sink handed to the wrapped operator: times each push as a child
/// span and counts audio records out.
struct PushTimer<'a> {
    out: &'a mut dyn Sink,
    rec: &'a mut Recorder,
    name: u16,
    clip: u32,
    audio_out: &'a mut u64,
}

impl Sink for PushTimer<'_> {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        if is_audio(&record) {
            *self.audio_out += 1;
        }
        let open = Recorder::enter();
        let result = self.out.push(record);
        self.rec.exit(open, self.name, self.clip);
        result
    }
}

fn is_audio(record: &Record) -> bool {
    record.kind == RecordKind::Data && record.subtype == ensemble_core::subtype::AUDIO
}

impl Operator for TracedOp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        let clip = self.cursor.observe(&record);
        if is_audio(&record) {
            self.audio.audio_in += 1;
        }
        let open = Recorder::enter();
        let result = {
            let mut timed = PushTimer {
                out,
                rec: &mut self.rec,
                name: self.push,
                clip,
                audio_out: &mut self.audio.audio_out,
            };
            self.inner.on_record(record, &mut timed)
        };
        self.rec.exit(open, self.name, clip);
        result
    }

    fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.inner.on_eos(out)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        let inner = self.inner.clone_op()?;
        Some(Box::new(TracedOp::new(
            inner,
            self.rec.tracer(),
            self.cursor,
        )))
    }

    fn signature(&self) -> Option<Signature> {
        self.inner.signature()
    }

    fn attach_events(&mut self, events: &EventSink) {
        self.inner.attach_events(events);
    }
}

/// Optional span recording for the benchmark's own sources and sinks:
/// `None` in timed runs.
pub struct MaybeSpans {
    rec: Option<(Recorder, u16)>,
}

impl MaybeSpans {
    /// Records spans named `name` into `tracer`, or nothing.
    pub fn new(tracer: Option<&Tracer>, name: &str) -> Self {
        MaybeSpans {
            rec: tracer.map(|t| (t.recorder(), t.name_id(name))),
        }
    }

    /// Runs `f`, inside a span when recording.
    pub fn time<T>(&mut self, clip: u32, f: impl FnOnce() -> T) -> T {
        match &mut self.rec {
            None => f(),
            Some((rec, name)) => {
                let open = Recorder::enter();
                let out = f();
                rec.exit(open, *name, clip);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::self_times;
    use dynamic_river::{Payload, Pipeline};

    struct Double;
    impl Operator for Double {
        fn name(&self) -> &'static str {
            "double"
        }
        fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
            out.push(record.clone())?;
            out.push(record)
        }
    }

    #[test]
    fn wrapped_chain_nests_spans_and_is_transparent() {
        let tracer = Tracer::new();
        let input = vec![
            Record::open_scope(1, vec![(CLIP_TAG.to_string(), "7".to_string())]),
            Record::data(ensemble_core::subtype::AUDIO, Payload::f64(vec![1.0])),
            Record::close_scope(1),
        ];
        let mut plain = Pipeline::new();
        plain.add(Double).add(Double);
        let expected = plain.run(input.clone()).unwrap();
        let mut traced = Pipeline::new();
        for _ in 0..2 {
            traced.add(TracedOp::new(
                Box::new(Double),
                &tracer,
                ClipCursor::new(0, 1),
            ));
        }
        assert_eq!(traced.names(), plain.names());
        assert_eq!(traced.run(input).unwrap(), expected);
        drop(traced);

        let spans = tracer.take_spans();
        let op = tracer.name_id("double");
        let push = tracer.name_id(PUSH);
        // 3 records into stage 1, 6 into stage 2; every op call pushes
        // twice.
        assert_eq!(spans.iter().filter(|s| s.name == op).count(), 9);
        assert_eq!(spans.iter().filter(|s| s.name == push).count(), 18);
        assert!(spans.iter().all(|s| s.clip == 7));
        // Stage-2 op spans are children of stage-1 push spans.
        let by_id: std::collections::BTreeMap<u64, Span> =
            spans.iter().map(|s| (s.id, *s)).collect();
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 3);
        for s in spans.iter().filter(|s| s.parent != 0) {
            let p = by_id[&s.parent];
            assert!(p.start <= s.start && s.end <= p.end);
            assert_ne!(p.name, s.name);
        }
        let st = self_times(&spans);
        let root_total: u64 = roots.iter().map(|s| s.dur()).sum();
        assert_eq!(st.values().sum::<u64>(), root_total);
        let audio = tracer.take_audio();
        assert_eq!(
            audio,
            vec![(
                "double".to_string(),
                AudioCounts {
                    audio_in: 1 + 2,
                    audio_out: 2 + 4
                }
            )]
        );
    }

    #[test]
    fn cursor_uses_tag_or_round_robin_ordinal() {
        let open = |ctx: Vec<(String, String)>| Record::open_scope(1, ctx);
        let mut c = ClipCursor::new(1, 2);
        assert_eq!(c.observe(&open(vec![])), 1);
        assert_eq!(c.observe(&Record::close_scope(1)), 1);
        assert_eq!(c.observe(&open(vec![])), 3);
        let tagged = open(vec![(CLIP_TAG.to_string(), "42".to_string())]);
        assert_eq!(c.observe(&tagged), 42);
        // Nested scopes do not advance the cursor.
        assert_eq!(c.observe(&open(vec![]).with_depth(1)), 42);
    }
}
