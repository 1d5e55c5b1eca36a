//! Seeded workload inputs, the Figure 5 chain (plain or traced) and the
//! output check against single-lane reference runs.

use crate::stats::ClipOutcome;
use crate::trace::{ClipCursor, TracedOp, Tracer, CLIP_TAG};
use dynamic_river::codec::{encode_frame_v2, DecodeEvent, Decoder, SampleEncoding};
use dynamic_river::{Operator, Payload, Pipeline, Record, RecordKind, StreamStats};
use ensemble_core::ops::{
    clip_record_source, Cutout, Cutter, LogScale, PaaOp, Rec2Vect, Reslice, SaxAnomaly, Spectrum,
    TriggerOp,
};
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;

/// The wire encoding the fleet's gateways upload with.
pub const FLEET_ENCODING: SampleEncoding = SampleEncoding::F32;

/// The stages of the Figure 5 chain under test, in order.
pub const STAGES: [&str; 8] = [
    "saxanomaly",
    "trigger",
    "cutter",
    "spectrum",
    "cutout",
    "paa",
    "logscale",
    "rec2vect",
];

/// The extractor configuration every workload runs.
pub fn config() -> ExtractorConfig {
    ExtractorConfig::paper()
}

/// The Figure 5 operators of `full_pipeline(cfg, true)`, built one by one
/// so they can be wrapped.
fn fig5_ops(cfg: ExtractorConfig) -> Vec<Box<dyn Operator>> {
    let mut ops: Vec<Box<dyn Operator>> = vec![
        Box::new(SaxAnomaly::new(cfg)),
        Box::new(TriggerOp::new(cfg)),
        Box::new(Cutter::new(cfg)),
    ];
    if cfg.reslice {
        ops.push(Box::new(Reslice::new()));
    }
    ops.push(Box::new(Spectrum::new()));
    ops.push(Box::new(Cutout::new(
        cfg.cutout_low_hz,
        cfg.cutout_high_hz,
        cfg.sample_rate,
    )));
    ops.push(Box::new(PaaOp::new(cfg.paa_factor)));
    if cfg.log_scale {
        ops.push(Box::new(LogScale::new()));
    }
    ops.push(Box::new(Rec2Vect::new(cfg.pattern_records)));
    ops
}

/// `full_pipeline(cfg, true)` with every operator wrapped in a
/// [`TracedOp`] recording into `tracer`.
///
/// # Panics
///
/// Panics if the wrapped chain's stage names differ from the shipped
/// chain's, i.e. if this function has drifted from `full_pipeline`.
pub fn traced_pipeline(cfg: ExtractorConfig, tracer: &Tracer, cursor: ClipCursor) -> Pipeline {
    let mut p = Pipeline::new();
    for op in fig5_ops(cfg) {
        p.add(TracedOp::new(op, tracer, cursor));
    }
    assert_eq!(
        p.names(),
        full_pipeline(cfg, true).names(),
        "traced chain must mirror full_pipeline(cfg, true)"
    );
    p
}

/// SplitMix64: a seed-mixing step, so nearby seeds give unrelated clips.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct clips, species cycled over `SpeciesCode::ALL`.
pub fn synth_clips(synth: &SynthConfig, seed: u64, count: usize) -> Vec<Vec<f64>> {
    let synth = ClipSynthesizer::new(*synth);
    (0..count)
        .map(|i| {
            let species = SpeciesCode::ALL[i % SpeciesCode::ALL.len()];
            synth.clip(species, mix(seed, i as u64)).samples
        })
        .collect()
}

/// Single-lane output and statistics of one clip's record stream.
pub fn reference(cfg: ExtractorConfig, records: impl dynamic_river::Source) -> Reference {
    let mut out = Vec::new();
    let stats = full_pipeline(cfg, true)
        .run_streaming(records, &mut out)
        .expect("reference run");
    Reference { out, stats }
}

/// One clip's expected output and the chain statistics it produced.
pub struct Reference {
    /// Every record the chain emitted for the clip.
    pub out: Vec<Record>,
    /// Statistics of the single-lane run over the clip alone.
    pub stats: StreamStats,
}

/// The record stream of one archive clip, as the sweep streams it.
pub fn archive_records(
    cfg: ExtractorConfig,
    samples: &[f64],
) -> impl dynamic_river::Source + Send + '_ {
    clip_record_source(
        samples.iter().copied(),
        cfg.sample_rate,
        cfg.record_len,
        &[],
    )
}

/// The context pair tagging a fleet clip with its schedule index. Fixed
/// width, so a tagged clip has the same byte counts whatever its index.
pub fn clip_tag(index: u32) -> (String, String) {
    (CLIP_TAG.to_string(), format!("{index:08}"))
}

/// A fleet clip's upload: its tagged `OpenScope` frame is per schedule
/// index, the rest (audio records and `CloseScope`) is shared.
pub fn encode_fleet_clip(cfg: ExtractorConfig, samples: &[f64]) -> Vec<u8> {
    let records = ensemble_core::ops::clip_to_records(
        samples,
        cfg.sample_rate,
        cfg.record_len,
        &[clip_tag(0)],
    );
    let mut body = Vec::new();
    for r in &records[1..] {
        body.extend_from_slice(&encode_frame_v2(r, FLEET_ENCODING));
    }
    body
}

/// The tagged `OpenScope` frame of schedule index `index`.
pub fn encode_fleet_open(cfg: ExtractorConfig, index: u32) -> Vec<u8> {
    let open = Record::open_scope(
        ensemble_core::scope_type::CLIP,
        vec![
            (
                ensemble_core::context_key::SAMPLE_RATE.to_string(),
                format!("{}", cfg.sample_rate),
            ),
            clip_tag(index),
        ],
    );
    encode_frame_v2(&open, FLEET_ENCODING)
}

/// Decodes a byte stream of whole frames.
pub fn decode_all(bytes: &[u8]) -> Vec<Record> {
    let mut dec = Decoder::new();
    let mut events = Vec::new();
    dec.feed(bytes, &mut events).expect("decode fleet clip");
    events
        .into_iter()
        .filter_map(|e| match e {
            DecodeEvent::Record(r) => Some(r),
            _ => None,
        })
        .collect()
}

/// Whether two records are equal once the fleet's schedule tag is
/// removed from scope context.
fn same_untagged(a: &Record, b: &Record) -> bool {
    let untag = |r: &Record| -> Record {
        let mut r = r.clone();
        if let Payload::Pairs(pairs) = &mut r.payload {
            pairs.retain(|(k, _)| k != CLIP_TAG);
        }
        r
    };
    if matches!(a.payload, Payload::Pairs(_)) || matches!(b.payload, Payload::Pairs(_)) {
        untag(a) == untag(b)
    } else {
        a == b
    }
}

/// Checks one clip's output against its reference, exactly, ignoring the
/// schedule tag.
pub fn check_clip(out: &[Record], reference: &[Record]) -> ClipOutcome {
    if out.iter().any(|r| r.kind == RecordKind::BadCloseScope) {
        ClipOutcome::Repaired
    } else if out.len() == reference.len()
        && out.iter().zip(reference).all(|(a, b)| same_untagged(a, b))
    {
        ClipOutcome::Equal
    } else {
        ClipOutcome::Mismatch
    }
}

/// Folds per-clip statistics into the statistics of a stream of those
/// clips back to back, as every Figure 5 operator resets at a clip's
/// `OpenScope`: counts add, peak bursts take the maximum.
pub fn fold_stats<'a>(clips: impl IntoIterator<Item = &'a StreamStats>) -> StreamStats {
    let mut total = StreamStats::default();
    for s in clips {
        total.merge(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_ignores_only_the_tag() {
        let open = |tag: &str| {
            Record::open_scope(
                1,
                vec![
                    ("sample_rate".to_string(), "1".to_string()),
                    (CLIP_TAG.to_string(), tag.to_string()),
                ],
            )
        };
        let data = Record::data(1, Payload::f64(vec![0.5]));
        let reference = vec![open("00000000"), data.clone(), Record::close_scope(1)];
        let out = vec![open("00000042"), data.clone(), Record::close_scope(1)];
        assert_eq!(check_clip(&out, &reference), ClipOutcome::Equal);
        let changed = vec![
            open("00000042"),
            Record::data(1, Payload::f64(vec![0.25])),
            Record::close_scope(1),
        ];
        assert_eq!(check_clip(&changed, &reference), ClipOutcome::Mismatch);
        assert_eq!(check_clip(&out[..2], &reference), ClipOutcome::Mismatch);
        let repaired = vec![open("00000042"), data, Record::bad_close_scope(1)];
        assert_eq!(check_clip(&repaired, &reference), ClipOutcome::Repaired);
    }

    #[test]
    fn traced_chain_matches_shipped_chain() {
        let cfg = config();
        let tracer = Tracer::new();
        let p = traced_pipeline(cfg, &tracer, ClipCursor::new(0, 1));
        assert_eq!(p.names(), STAGES);
    }
}
