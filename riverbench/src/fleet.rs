//! The sensor-fleet workload: an open loop of loopback TCP gateways
//! uploading v2/F32-encoded 10 s clips on a fixed schedule to one
//! `PipelineServer` running the Figure 5 chain.

use crate::inputs::{self, Reference};
use crate::stats::ClipOutcome;
use crate::trace::{now_ns, ClipCursor, MaybeSpans, Tracer, SINK};
use dynamic_river::codec::EOS_MAGIC;
use dynamic_river::{
    PipelineError, PipelineServer, Record, ServerReport, Sink, StreamStats, TelemetryConfig,
};
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Distinct clips in the pool; the schedule cycles through them.
pub const POOL_CLIPS: usize = 20;
/// Sensor gateways, one TCP connection each.
pub const GATEWAYS: usize = 2;
/// Offered load over all gateways, in clips per second.
pub const CLIPS_PER_SEC: u64 = 20;
/// Server worker-pool width and session capacity.
pub const SERVER_WORKERS: usize = 2;
/// Gap between connecting the gateways and the first due time.
const LEAD_IN: Duration = Duration::from_millis(100);

/// The fleet's clips: 10 s, 1–2 bouts.
pub fn synth_config() -> SynthConfig {
    SynthConfig {
        clip_seconds: 10.0,
        min_songs: 1,
        max_songs: 2,
        ..SynthConfig::paper()
    }
}

/// The fleet's inputs and expected outputs.
pub struct Fleet {
    cfg: ExtractorConfig,
    /// Each distinct clip's encoded audio records and `CloseScope`.
    pub bodies: Vec<Vec<u8>>,
    /// Each distinct clip's records after the f32 wire round trip.
    pub decoded: Vec<Vec<Record>>,
    refs: Vec<Reference>,
}

impl Fleet {
    /// Synthesizes and encodes the pool for `seed`; the reference runs
    /// over the f32-round-tripped records.
    pub fn setup(seed: u64) -> Fleet {
        let cfg = inputs::config();
        let clips = inputs::synth_clips(&synth_config(), seed, POOL_CLIPS);
        let bodies: Vec<Vec<u8>> = clips
            .iter()
            .map(|c| inputs::encode_fleet_clip(cfg, c))
            .collect();
        let decoded: Vec<Vec<Record>> = bodies
            .iter()
            .map(|b| {
                let mut bytes = inputs::encode_fleet_open(cfg, 0);
                bytes.extend_from_slice(b);
                inputs::decode_all(&bytes)
            })
            .collect();
        let refs = decoded
            .iter()
            .map(|d| inputs::reference(cfg, d.clone().into_iter()))
            .collect();
        Fleet {
            cfg,
            bodies,
            decoded,
            refs,
        }
    }

    /// Statistics a server run over the first `clips` schedule entries
    /// must return.
    pub fn expected(&self, clips: u32) -> StreamStats {
        inputs::fold_stats((0..clips as usize).map(|k| &self.refs[k % POOL_CLIPS].stats))
    }

    /// Input records of schedule entry `k` (open, audio, close).
    pub fn records_of(&self, k: u32) -> u64 {
        self.decoded[k as usize % POOL_CLIPS].len() as u64
    }

    /// Runs the open loop for `clips` schedule entries. With a tracer,
    /// every session chain is wrapped and the session sinks record spans.
    pub fn run(&self, clips: u32, tracer: Option<&Tracer>) -> FleetRun {
        let cfg = self.cfg;
        let opens: Vec<Vec<u8>> = (0..clips)
            .map(|k| inputs::encode_fleet_open(cfg, k))
            .collect();
        let chain_tracer = tracer.cloned();
        let mut server = PipelineServer::from_factory(move |_| match &chain_tracer {
            None => full_pipeline(cfg, true),
            Some(t) => inputs::traced_pipeline(cfg, t, ClipCursor::new(0, 1)),
        });
        server
            .set_workers(SERVER_WORKERS)
            .set_max_sessions(SERVER_WORKERS)
            .set_telemetry(TelemetryConfig::Counters);
        let done = Arc::new(Mutex::new(Vec::with_capacity(clips as usize)));
        let sink_done = Arc::clone(&done);
        let sink_tracer = tracer.cloned();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let handle = server
            .start(listener, move |_| {
                Box::new(FleetSink {
                    done: Arc::clone(&sink_done),
                    current: Vec::new(),
                    cursor: ClipCursor::new(0, 1),
                    spans: MaybeSpans::new(sink_tracer.as_ref(), SINK),
                })
            })
            .expect("start server");
        let gateways: Vec<TcpStream> = (0..GATEWAYS)
            .map(|_| {
                let s = TcpStream::connect(handle.local_addr()).expect("connect gateway");
                s.set_nodelay(true).expect("nodelay");
                s
            })
            .collect();

        let period = 1_000_000_000 / CLIPS_PER_SEC;
        let t0 = now_ns() + LEAD_IN.as_nanos() as u64;
        let due = |k: u32| t0 + u64::from(k) * period;
        let threads = GATEWAYS.min(crate::host::nproc());
        let cpu0 = crate::host::process_cpu();
        let steal0 = crate::host::host_steal();
        // Gateway g sends schedule entries k ≡ g (mod GATEWAYS), so the
        // gateways are offset by 1/GATEWAYS of their own period.
        let mut sent = vec![(0u64, 0u64); clips as usize];
        std::thread::scope(|scope| {
            let mut lanes: Vec<Vec<(usize, TcpStream)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (g, s) in gateways.into_iter().enumerate() {
                lanes[g % threads].push((g, s));
            }
            let workers: Vec<_> = lanes
                .into_iter()
                .map(|mut lane| {
                    let opens = &opens;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mine: Vec<u32> = (0..clips)
                            .filter(|k| lane.iter().any(|(g, _)| *k as usize % GATEWAYS == *g))
                            .collect();
                        for k in mine {
                            let at = due(k);
                            let now = now_ns();
                            if at > now {
                                std::thread::sleep(Duration::from_nanos(at - now));
                            }
                            let started = now_ns();
                            let (_, stream) = lane
                                .iter_mut()
                                .find(|(g, _)| *g == k as usize % GATEWAYS)
                                .expect("gateway of schedule entry");
                            stream.write_all(&opens[k as usize]).expect("upload open");
                            stream
                                .write_all(&self.bodies[k as usize % POOL_CLIPS])
                                .expect("upload clip");
                            out.push((k, started - at, now_ns()));
                        }
                        for (_, stream) in &mut lane {
                            stream.write_all(&EOS_MAGIC).expect("upload end of stream");
                            stream.flush().expect("flush gateway");
                        }
                        out
                    })
                })
                .collect();
            for w in workers {
                for (k, late, end) in w.join().expect("gateway thread") {
                    sent[k as usize] = (late, end);
                }
            }
        });
        handle.wait_for_completed(GATEWAYS as u64);
        let end = now_ns();
        let cpu = crate::host::process_cpu().saturating_sub(cpu0);
        let steal = crate::host::host_steal().saturating_sub(steal0);
        let report = handle.shutdown().expect("server report");
        let done = std::mem::take(&mut *done.lock().expect("fleet outputs"));

        let mut close = vec![None; clips as usize];
        let mut outcomes = std::collections::BTreeMap::new();
        for d in &done {
            if let Some(slot) = close.get_mut(d.clip as usize) {
                *slot = Some(d.close_ns);
                let r = &self.refs[d.clip as usize % POOL_CLIPS];
                outcomes.insert(u64::from(d.clip), inputs::check_clip(&d.records, &r.out));
            }
        }
        // Sessions are not mapped to gateways, so an unclean session
        // fails every clip of the run.
        for s in report.sessions.iter().filter(|s| !s.is_clean()) {
            eprintln!(
                "riverbench: session {} unclean: {:?} {:?}",
                s.id, s.end, s.error
            );
            outcomes
                .values_mut()
                .for_each(|o| *o = ClipOutcome::Mismatch);
        }
        let clips_out = (0..clips)
            .map(|k| FleetClip {
                due_ns: due(k),
                late_ns: sent[k as usize].0,
                send_end_ns: sent[k as usize].1,
                close_ns: close[k as usize],
            })
            .collect();
        FleetRun {
            start_ns: t0,
            end_ns: end,
            cpu_s: cpu.as_secs_f64(),
            steal_s: steal.as_secs_f64(),
            records: (0..clips).map(|k| self.records_of(k)).sum(),
            clips: clips_out,
            outcomes,
            report,
        }
    }
}

/// Timing of one schedule entry.
#[derive(Debug, Clone, Copy)]
pub struct FleetClip {
    /// When the upload was due.
    pub due_ns: u64,
    /// How late the generator started it.
    pub late_ns: u64,
    /// When the generator's writes returned.
    pub send_end_ns: u64,
    /// When its top-level `CloseScope` reached the session sink.
    pub close_ns: Option<u64>,
}

impl FleetClip {
    /// Due time → `CloseScope` at the sink.
    pub fn latency_ns(&self) -> Option<u64> {
        self.close_ns.map(|c| c.saturating_sub(self.due_ns))
    }
}

/// One open-loop run.
pub struct FleetRun {
    /// First due time.
    pub start_ns: u64,
    /// Every session served.
    pub end_ns: u64,
    /// Process CPU time from the first due time to the end.
    pub cpu_s: f64,
    /// Host CPU steal over the same interval.
    pub steal_s: f64,
    /// Input records uploaded.
    pub records: u64,
    /// Per schedule entry.
    pub clips: Vec<FleetClip>,
    /// Output check per schedule entry that reached a sink.
    pub outcomes: std::collections::BTreeMap<u64, ClipOutcome>,
    /// What the server reported.
    pub report: ServerReport,
}

impl FleetRun {
    /// Latencies of the clips that completed, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.clips
            .iter()
            .filter_map(FleetClip::latency_ns)
            .map(|l| l as f64 / 1e6)
            .collect()
    }

    /// Wall time from first due time to the last session served.
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A clip's output at the session sink.
struct FleetClipOut {
    clip: u32,
    records: Vec<Record>,
    close_ns: u64,
}

/// The per-session sink: collects each clip scope, keyed by the
/// schedule tag, and stamps its close.
struct FleetSink {
    done: Arc<Mutex<Vec<FleetClipOut>>>,
    current: Vec<Record>,
    cursor: ClipCursor,
    spans: MaybeSpans,
}

impl Sink for FleetSink {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        let clip = self.cursor.observe(&record);
        let (current, done) = (&mut self.current, &self.done);
        self.spans.time(clip, || {
            let closes = record.kind.closes_scope() && record.scope_depth == 0;
            current.push(record);
            if closes {
                let out = FleetClipOut {
                    clip,
                    records: std::mem::take(current),
                    close_ns: now_ns(),
                };
                done.lock()
                    .map_err(|_| PipelineError::Disconnected("fleet sink lock".into()))
                    .map(|mut d| d.push(out))
            } else {
                Ok(())
            }
        })
    }
}
