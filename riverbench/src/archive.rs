//! The archive workloads: a seeded pool of distinct 30 s clips swept as
//! back-to-back clip scopes, single-lane or scope-sharded, in passes.

use crate::analysis::Summary;
use crate::inputs::{self, archive_records, Reference};
use crate::stats::{ClipOutcome, Span};
use crate::trace::{now_ns, ClipCursor, MaybeSpans, Tracer, SINK, SOURCE};
use dynamic_river::source::ChainedSource;
use dynamic_river::{
    PipelineError, Record, RecordKind, ShardedPipeline, Sink, Source, StreamStats,
};
use ensemble_core::pipeline::{full_pipeline, full_pipeline_sharded};
use ensemble_core::prelude::*;
use std::sync::{Arc, Mutex};

/// Distinct clips in the pool; the sweep cycles through them.
pub const POOL_CLIPS: usize = 10;

/// How the sweep is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `full_pipeline(cfg, true)` + `Pipeline::run_streaming`.
    Single,
    /// `full_pipeline_sharded(cfg, true, workers)`.
    Sharded(usize),
}

/// The archive's inputs and expected outputs.
pub struct Archive {
    cfg: ExtractorConfig,
    clips: Vec<Vec<f64>>,
    refs: Vec<Reference>,
    /// Statistics one pass must return.
    pub expected: StreamStats,
}

impl Archive {
    /// Synthesizes the pool for `seed` and runs the single-lane
    /// reference over each clip.
    pub fn setup(seed: u64) -> Archive {
        let cfg = inputs::config();
        let clips = inputs::synth_clips(&SynthConfig::paper(), seed, POOL_CLIPS);
        let refs: Vec<Reference> = clips
            .iter()
            .map(|c| inputs::reference(cfg, archive_records(cfg, c)))
            .collect();
        let expected = inputs::fold_stats(refs.iter().map(|r| &r.stats));
        Archive {
            cfg,
            clips,
            refs,
            expected,
        }
    }

    /// The distinct clips' samples.
    pub fn clips(&self) -> &[Vec<f64>] {
        &self.clips
    }

    /// Sweeps the pool once. With a tracer, every operator, the source
    /// and the sink record spans.
    pub fn pass(&self, runner: Runner, tracer: Option<&Tracer>) -> Pass {
        let cfg = self.cfg;
        let opens = Arc::new(Mutex::new(Vec::with_capacity(self.clips.len())));
        let source = ClipSource {
            inner: ChainedSource::new(self.clips.iter().map(move |c| archive_records(cfg, c))),
            opens: Arc::clone(&opens),
            spans: MaybeSpans::new(tracer, SOURCE),
            clips: 0,
        };
        let mut sink = ClipSink::new(tracer);
        let start = now_ns();
        let cpu0 = crate::host::process_cpu();
        let steal0 = crate::host::host_steal();
        let stats = match (runner, tracer) {
            (Runner::Single, None) => full_pipeline(cfg, true).run_streaming(source, &mut sink),
            (Runner::Single, Some(t)) => inputs::traced_pipeline(cfg, t, ClipCursor::new(0, 1))
                .run_streaming(source, &mut sink),
            (Runner::Sharded(n), None) => {
                full_pipeline_sharded(cfg, true, n).run(source, &mut sink)
            }
            (Runner::Sharded(n), Some(t)) => ShardedPipeline::from_factory(n, |w| {
                inputs::traced_pipeline(cfg, t, ClipCursor::new(w as u32, n as u32))
            })
            .run(source, &mut sink),
        }
        .expect("archive sweep");
        let end = now_ns();
        let cpu = crate::host::process_cpu().saturating_sub(cpu0);
        let steal = crate::host::host_steal().saturating_sub(steal0);
        let ClipSink { done, .. } = sink;
        let opens = std::mem::take(&mut *opens.lock().expect("clip open times"));
        let latencies_ms = done
            .iter()
            .zip(&opens)
            .map(|(d, &o)| (d.close_ns - o) as f64 / 1e6)
            .collect();
        let outcomes = self
            .refs
            .iter()
            .enumerate()
            .map(|(i, r)| done.get(i).map(|d| inputs::check_clip(&d.records, &r.out)))
            .collect();
        Pass {
            wall_ns: end - start,
            cpu_s: cpu.as_secs_f64(),
            steal_s: steal.as_secs_f64(),
            stats,
            latencies_ms,
            outcomes,
        }
    }
}

/// One sweep over the pool.
pub struct Pass {
    /// Wall time of the sweep.
    pub wall_ns: u64,
    /// Process CPU time during the sweep.
    pub cpu_s: f64,
    /// Host CPU steal during the sweep.
    pub steal_s: f64,
    /// What the runner returned.
    pub stats: StreamStats,
    /// Per clip: first record pulled → clip `CloseScope` at the sink.
    pub latencies_ms: Vec<f64>,
    /// Per pool clip, the output check (`None`: output missing).
    pub outcomes: Vec<Option<ClipOutcome>>,
}

impl Pass {
    /// Input records per wall second.
    pub fn records_per_sec(&self) -> f64 {
        self.stats.source_records as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// The pass's [`crate::stats::steal_factor`].
    pub fn steal_factor(&self) -> f64 {
        crate::stats::steal_factor(self.cpu_s, self.steal_s)
    }

    /// Input records per wall second, CPU steal taken out of the wall
    /// clock.
    pub fn steal_free_rate(&self) -> f64 {
        self.records_per_sec() / self.steal_factor()
    }
}

/// The sweep's source: the pool's clip streams back to back, stamping
/// when each clip's first record is pulled.
struct ClipSource<S> {
    inner: S,
    opens: Arc<Mutex<Vec<u64>>>,
    spans: MaybeSpans,
    clips: u32,
}

impl<S: Source> Source for ClipSource<S> {
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        let clip = self.clips;
        let inner = &mut self.inner;
        let next = self.spans.time(clip, || inner.next_record())?;
        if let Some(r) = &next {
            if r.kind == RecordKind::OpenScope && r.scope_depth == 0 {
                self.opens.lock().expect("clip open times").push(now_ns());
                self.clips += 1;
            }
        }
        Ok(next)
    }
}

/// One clip's output as the sink saw it.
pub struct ClipDone {
    /// Every record of the clip scope, open to close.
    pub records: Vec<Record>,
    /// When the clip's top-level close reached the sink.
    pub close_ns: u64,
}

/// The sweep's sink: collects each clip scope's output and stamps its
/// close. The check against the reference runs after the sweep.
struct ClipSink {
    current: Vec<Record>,
    done: Vec<ClipDone>,
    spans: MaybeSpans,
}

impl ClipSink {
    fn new(tracer: Option<&Tracer>) -> Self {
        ClipSink {
            current: Vec::new(),
            done: Vec::new(),
            spans: MaybeSpans::new(tracer, SINK),
        }
    }
}

impl Sink for ClipSink {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        let clip = self.done.len() as u32;
        let (current, done) = (&mut self.current, &mut self.done);
        self.spans.time(clip, || {
            let closes = record.kind.closes_scope() && record.scope_depth == 0;
            current.push(record);
            if closes {
                done.push(ClipDone {
                    records: std::mem::take(current),
                    close_ns: now_ns(),
                });
            }
        });
        Ok(())
    }
}

/// Per-layer time of one traced pass.
pub struct TracedPass {
    /// The pass itself.
    pub pass: Pass,
    /// Its spans, summarized.
    pub summary: Summary,
    /// Its raw spans.
    pub spans: Vec<Span>,
}

impl Archive {
    /// A traced pass: the sweep with every layer wrapped, its spans
    /// summarized and the sum-to-wall check applied.
    pub fn traced_pass(&self, runner: Runner, tracer: &Tracer) -> Result<TracedPass, String> {
        let pass = self.pass(runner, Some(tracer));
        let spans = tracer.take_spans();
        let summary = Summary::of(&spans, tracer);
        summary.check_parts_within(pass.wall_ns)?;
        Ok(TracedPass {
            pass,
            summary,
            spans,
        })
    }
}
