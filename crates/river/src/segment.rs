//! Pipeline segments, hosts, and dynamic relocation.
//!
//! "Pipeline segments are created by composing sequences of operators
//! that produce a partial result important to the overall pipeline
//! application. … Moreover, pipelines can be recomposed dynamically by
//! moving segments among hosts" (paper §2). Relocation happens at
//! *scope boundaries* — the stream is cut only when no scopes are open,
//! so downstream state never sees a torn scope.
//!
//! Hosts are modeled as names. A [`RelocatablePipeline`] runs one
//! segment instance at a time, inline on its coordinator thread, through
//! the same chain-execution core as every other runner; a relocation
//! command makes the coordinator finish the current instance at the
//! next balanced point and start a fresh instance "on" the target host.
//! For cross-machine composition over TCP, see [`run_network_segment`].

use crate::error::PipelineError;
use crate::net::{StreamEnd, StreamIn, StreamOut};
use crate::operator::{FnSink, NullSink, Operator, Sink};
use crate::pipeline::{ChainRun, Pipeline};
use crate::record::Record;
use crate::scope::ScopeTracker;
use crate::source::FnSource;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::net::{TcpListener, ToSocketAddrs};
use std::thread::{self, JoinHandle};

/// A relocation of a running segment between hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Host the segment left.
    pub from: String,
    /// Host the segment moved to.
    pub to: String,
    /// Count of records the old instance had processed when it was
    /// retired.
    pub at_record: u64,
}

/// Final report of a relocatable segment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// All migrations, in order.
    pub migrations: Vec<Migration>,
    /// Total records forwarded through the segment.
    pub records_in: u64,
    /// Host that processed the final record.
    pub final_host: String,
}

/// Command accepted by a running [`RelocatablePipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentCommand {
    /// Move the segment to the named host at the next scope boundary.
    Relocate {
        /// Target host name.
        to_host: String,
    },
}

/// Pre-flights a factory-built segment and instantiates its chain.
fn start_instance(pipeline: Pipeline) -> Result<ChainRun, PipelineError> {
    pipeline.preflight(false)?;
    let telemetry = pipeline.telemetry();
    Ok(ChainRun::new(pipeline.into_ops(), &telemetry, 0))
}

/// A running, relocatable segment.
///
/// # Example
///
/// ```
/// use crossbeam::channel::unbounded;
/// use dynamic_river::prelude::*;
/// use dynamic_river::segment::RelocatablePipeline;
///
/// let (in_tx, in_rx) = unbounded();
/// let (out_tx, out_rx) = unbounded();
/// let seg = RelocatablePipeline::spawn(
///     || {
///         let mut p = Pipeline::new();
///         p.add(Passthrough);
///         p
///     },
///     in_rx,
///     out_tx,
///     "host-a",
/// );
///
/// in_tx.send(Record::open_scope(1, vec![])).unwrap();
/// in_tx.send(Record::close_scope(1)).unwrap();
/// seg.relocate("host-b");
/// in_tx.send(Record::open_scope(1, vec![])).unwrap();
/// in_tx.send(Record::close_scope(1)).unwrap();
/// drop(in_tx);
///
/// let report = seg.join().unwrap();
/// assert_eq!(report.records_in, 4);
/// assert_eq!(report.final_host, "host-b");
/// assert_eq!(out_rx.iter().count(), 4);
/// ```
pub struct RelocatablePipeline {
    control_tx: Sender<SegmentCommand>,
    handle: JoinHandle<Result<SegmentReport, PipelineError>>,
}

impl RelocatablePipeline {
    /// Spawns the coordinator with an initial segment instance on
    /// `initial_host`. `factory` builds a fresh instance of the segment
    /// for each host it runs on; every instance is pre-flighted
    /// ([`Pipeline::check`]) before it sees a record.
    pub fn spawn<F>(
        factory: F,
        input: Receiver<Record>,
        output: Sender<Record>,
        initial_host: impl Into<String>,
    ) -> Self
    where
        F: Fn() -> Pipeline + Send + 'static,
    {
        let (control_tx, control_rx) = unbounded::<SegmentCommand>();
        let initial_host = initial_host.into();
        let handle = thread::spawn(move || -> Result<SegmentReport, PipelineError> {
            let mut sink = ChannelSink(output);
            let mut tracker = ScopeTracker::new();
            let mut migrations = Vec::new();
            let mut records_in = 0u64;
            let mut pending: Option<String> = None;
            let mut host = initial_host;
            let mut current = start_instance(factory())?;

            for record in input {
                // Absorb any relocation commands.
                while let Ok(SegmentCommand::Relocate { to_host }) = control_rx.try_recv() {
                    pending = Some(to_host);
                }
                // Cut only at scope boundaries (nothing open); otherwise
                // the command stays pending.
                if tracker.is_balanced() {
                    if let Some(to_host) = pending.take() {
                        current.finish(&mut sink)?;
                        current = start_instance(factory())?;
                        migrations.push(Migration {
                            from: std::mem::replace(&mut host, to_host.clone()),
                            to: to_host,
                            at_record: records_in,
                        });
                    }
                }
                // Tolerate scope noise in transit; the tracker only guides
                // cut points.
                let _ = tracker.observe(&record);
                records_in += 1;
                current.push(record, &mut sink)?;
            }
            current.finish(&mut sink)?;
            Ok(SegmentReport {
                migrations,
                records_in,
                final_host: host,
            })
        });
        RelocatablePipeline { control_tx, handle }
    }

    /// Requests relocation to `host` at the next scope boundary.
    /// Returns `false` if the segment has already finished.
    pub fn relocate(&self, host: impl Into<String>) -> bool {
        self.control_tx
            .send(SegmentCommand::Relocate {
                to_host: host.into(),
            })
            .is_ok()
    }

    /// Waits for the segment to finish and returns its report.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when a factory-built instance
    /// fails pre-flight, otherwise the first pipeline error raised by
    /// any instance or by the output channel.
    pub fn join(self) -> Result<SegmentReport, PipelineError> {
        self.handle.join().expect("segment coordinator panicked")
    }
}

/// Runs a network-bounded segment: accepts one upstream connection on
/// `listener` (`streamin`), connects to `downstream` (`streamout`), and
/// streams every record through `pipeline` as it arrives
/// ([`Pipeline::run_streaming`]). Returns how the upstream session
/// ended.
///
/// This is the building block for composing one logical pipeline across
/// several processes/hosts. Memory stays bounded by the chain's own
/// state whatever the session length.
///
/// An upstream that vanishes mid-scope is not an error: its open scopes
/// are repaired with `BadCloseScope` records, which flow through the
/// chain, downstream receives a clean end-of-stream, and the return
/// value is [`StreamEnd::Unclean`].
///
/// # Errors
///
/// Propagates connection, decode and operator failures. When the
/// session fails mid-stream, downstream has received the output of
/// every record processed before the failure, then sees its connection
/// close without the end-of-stream sentinel, so its `streamin` reports
/// an unclean end and repairs any scope left open.
pub fn run_network_segment<A: ToSocketAddrs>(
    listener: &TcpListener,
    downstream: A,
    mut pipeline: Pipeline,
) -> Result<StreamEnd, PipelineError> {
    let (stream, _peer) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut streamin = StreamIn::new(stream);
    let mut out = StreamOut::connect(downstream)?;
    pipeline.run_streaming(
        FnSource(|| streamin.next_record()),
        &mut FnSink(|r| out.on_record(r, &mut NullSink)),
    )?;
    out.on_eos(&mut NullSink)?;
    Ok(streamin
        .end()
        .expect("the source returned None, so the stream ended"))
}

/// A sink adapter that forwards every record into a `Sender` — the
/// output of a [`RelocatablePipeline`], and a way for
/// [`StreamIn::pump`] to feed a channel directly.
#[derive(Debug, Clone)]
pub struct ChannelSink(pub Sender<Record>);

impl Sink for ChannelSink {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        self.0
            .send(record)
            .map_err(|_| PipelineError::Disconnected("channel sink closed".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{DiagnosticKind, PayloadKind, RecordClass, Signature, UnmatchedPolicy};
    use crate::ops::{MapPayload, Passthrough};
    use crate::record::{Payload, RecordKind};
    use crate::scope::validate_scopes;
    use crossbeam::channel::bounded;

    fn scope_burst(scope_type: u16, n: usize, base_seq: u64) -> Vec<Record> {
        let mut v = vec![Record::open_scope(scope_type, vec![])];
        for i in 0..n {
            v.push(Record::data(1, Payload::f64(vec![i as f64])).with_seq(base_seq + i as u64));
        }
        v.push(Record::close_scope(scope_type));
        v
    }

    #[test]
    fn relocation_preserves_all_records_and_scopes() {
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(MapPayload::new("x2", |v: &mut [f64]| {
                    v.iter_mut().for_each(|x| *x *= 2.0);
                }));
                p
            },
            in_rx,
            out_tx,
            "host-a",
        );

        // First scope on host A.
        for r in scope_burst(1, 10, 0) {
            in_tx.send(r).unwrap();
        }
        seg.relocate("host-b");
        // Two more scopes; the move lands between them.
        for r in scope_burst(1, 10, 100) {
            in_tx.send(r).unwrap();
        }
        for r in scope_burst(1, 10, 200) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);

        let report = seg.join().unwrap();
        let out: Vec<Record> = out_rx.iter().collect();
        assert_eq!(out.len(), 36);
        validate_scopes(&out).unwrap();
        assert_eq!(report.records_in, 36);
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(report.migrations[0].from, "host-a");
        assert_eq!(report.migrations[0].to, "host-b");
        assert_eq!(report.final_host, "host-b");
        // Payloads transformed by whichever host ran the record.
        let data: Vec<&Record> = out.iter().filter(|r| r.kind == RecordKind::Data).collect();
        assert_eq!(data[0].payload.as_f64().unwrap(), &[0.0]);
        assert_eq!(data[1].payload.as_f64().unwrap(), &[2.0]);
    }

    #[test]
    fn relocation_waits_for_scope_boundary() {
        // Rendezvous input channel: each send completes only when the
        // coordinator takes the record, making command interleaving
        // deterministic.
        let (in_tx, in_rx) = bounded(0);
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(Passthrough);
                p
            },
            in_rx,
            out_tx,
            "host-a",
        );

        // Open a scope, then request relocation mid-scope.
        in_tx.send(Record::open_scope(1, vec![])).unwrap();
        in_tx.send(Record::data(0, Payload::Empty)).unwrap();
        seg.relocate("host-b");
        // These records are still inside the scope; the move must not
        // happen before the close.
        in_tx.send(Record::data(0, Payload::Empty)).unwrap();
        in_tx.send(Record::close_scope(1)).unwrap();
        // Next scope should run on host-b.
        for r in scope_burst(1, 2, 10) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);

        let report = seg.join().unwrap();
        assert_eq!(report.migrations.len(), 1);
        // The migration happened at a record index *after* the first
        // scope completed (4 records: open, 2 data, close).
        assert!(report.migrations[0].at_record >= 4);
        let out: Vec<Record> = out_rx.iter().collect();
        validate_scopes(&out).unwrap();
    }

    #[test]
    fn multiple_relocations() {
        // Rendezvous input channel (see above): relocation commands land
        // between bursts instead of coalescing.
        let (in_tx, in_rx) = bounded(0);
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(Passthrough);
                p
            },
            in_rx,
            out_tx,
            "h0",
        );
        for hop in 1..=3 {
            for r in scope_burst(1, 5, hop * 10) {
                in_tx.send(r).unwrap();
            }
            seg.relocate(format!("h{hop}"));
        }
        for r in scope_burst(1, 5, 99) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);
        let report = seg.join().unwrap();
        assert_eq!(report.migrations.len(), 3);
        assert_eq!(report.final_host, "h3");
        assert_eq!(out_rx.iter().count(), 4 * 7);
    }

    #[test]
    fn no_relocation_runs_single_host() {
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(Passthrough);
                p
            },
            in_rx,
            out_tx,
            "solo",
        );
        for r in scope_burst(2, 3, 0) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);
        let report = seg.join().unwrap();
        assert!(report.migrations.is_empty());
        assert_eq!(report.final_host, "solo");
        assert_eq!(out_rx.iter().count(), 5);
    }

    #[test]
    fn network_segment_processes_and_forwards() {
        use crate::net::send_all;
        use std::net::TcpListener;

        let seg_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let seg_addr = seg_listener.local_addr().unwrap();
        let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink_listener.local_addr().unwrap();

        // Final sink host.
        let sink_thread = thread::spawn(move || {
            let mut records: Vec<Record> = Vec::new();
            let (end, _received) = crate::net::serve_once(&sink_listener, &mut records).unwrap();
            (end, records)
        });

        // Segment host: doubles payloads.
        let segment_thread = thread::spawn(move || {
            let mut p = Pipeline::new();
            p.add(MapPayload::new("x2", |v: &mut [f64]| {
                v.iter_mut().for_each(|x| *x *= 2.0);
            }));
            run_network_segment(&seg_listener, sink_addr, p).unwrap()
        });

        // Source host.
        let sent = send_all(seg_addr, &scope_burst(1, 4, 0)).unwrap();
        assert_eq!(sent, 6);

        let upstream_end = segment_thread.join().unwrap();
        assert_eq!(upstream_end, StreamEnd::Clean);
        let (end, records) = sink_thread.join().unwrap();
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(records.len(), 6);
        validate_scopes(&records).unwrap();
        assert_eq!(records[2].payload.as_f64().unwrap(), &[2.0]);
    }

    /// A pass-through whose declared signature is all the analyzer sees.
    struct Declared(&'static str, Signature);

    impl Operator for Declared {
        fn name(&self) -> &str {
            self.0
        }
        fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
            out.push(record)
        }
        fn signature(&self) -> Option<Signature> {
            Some(self.1.clone())
        }
    }

    #[test]
    fn relocatable_segment_preflights_its_instances() {
        const A: RecordClass = RecordClass::of(1, PayloadKind::F64);
        const B: RecordClass = RecordClass::of(2, PayloadKind::F64);
        const C: RecordClass = RecordClass::of(3, PayloadKind::F64);
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                // `gate` lets only A through, so `b2c` is provably dead.
                let mut p = Pipeline::new();
                p.add(Declared(
                    "gate",
                    Signature::map(A, A).with_unmatched(UnmatchedPolicy::Drop),
                ));
                p.add(Declared("b2c", Signature::map(B, C)));
                p
            },
            in_rx,
            out_tx,
            "host-a",
        );
        // The coordinator may already have refused the chain and hung up.
        let _ = in_tx.send(Record::data(1, Payload::f64(vec![1.0])));
        drop(in_tx);
        let err = seg.join().unwrap_err();
        let PipelineError::Analysis(diags) = &err else {
            panic!("expected an analysis error, got {err}");
        };
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DeadStage && d.operator == "b2c"));
        assert!(err.to_string().contains("RL0002"), "{err}");
        assert_eq!(out_rx.iter().count(), 0);
    }

    #[test]
    fn network_segment_forwards_before_upstream_closes() {
        use std::net::TcpStream;
        use std::sync::mpsc;
        use std::time::Duration;

        let seg_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let seg_addr = seg_listener.local_addr().unwrap();
        let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink_listener.local_addr().unwrap();

        // One complete scope whose output is several times the 8 KiB
        // write buffer of the segment's `streamout`.
        let mut scope = vec![Record::open_scope(1, vec![])];
        scope.extend((0..40).map(|i| Record::data(1, Payload::f64(vec![f64::from(i); 64]))));
        scope.push(Record::close_scope(1));
        let sent = scope.len();

        // Final sink host: reports every record the moment it arrives.
        let (arrived_tx, arrived_rx) = mpsc::channel();
        let sink_thread = thread::spawn(move || {
            let (stream, _peer) = sink_listener.accept().unwrap();
            let mut streamin = StreamIn::new(stream);
            let mut received = 0usize;
            while let Some(record) = streamin.next_record().unwrap() {
                received += 1;
                let _ = arrived_tx.send(record);
            }
            (streamin.end(), received)
        });

        let segment_thread = thread::spawn(move || {
            let mut p = Pipeline::new();
            p.add(MapPayload::new("x2", |v: &mut [f64]| {
                v.iter_mut().for_each(|x| *x *= 2.0);
            }));
            run_network_segment(&seg_listener, sink_addr, p).unwrap()
        });

        // Source host: sends the scope, then holds its connection open
        // until released.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let upstream = thread::spawn(move || {
            let mut out = StreamOut::new(TcpStream::connect(seg_addr).unwrap());
            for record in scope {
                out.on_record(record, &mut NullSink).unwrap();
            }
            out.keepalive().unwrap(); // flushes the scope onto the wire
            let _ = release_rx.recv();
            out.on_eos(&mut NullSink).unwrap();
        });

        let wait = Duration::from_secs(20);
        let open = arrived_rx
            .recv_timeout(wait)
            .expect("no output downstream while the upstream session is open");
        assert_eq!(open.kind, RecordKind::OpenScope);
        let data = arrived_rx.recv_timeout(wait).unwrap();
        assert_eq!(data.payload.as_f64().unwrap(), &[0.0; 64]);
        let data = arrived_rx.recv_timeout(wait).unwrap();
        assert_eq!(data.payload.as_f64().unwrap(), &[2.0; 64]);

        release_tx.send(()).unwrap();
        upstream.join().unwrap();
        assert_eq!(segment_thread.join().unwrap(), StreamEnd::Clean);
        let (end, received) = sink_thread.join().unwrap();
        assert_eq!(end, Some(StreamEnd::Clean));
        assert_eq!(received, sent);
    }
}
