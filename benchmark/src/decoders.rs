//! `Decoder` wrappers: the seam through which the benchmark sees the
//! decoder layer from outside the sampler. All of them sit around the
//! union-find decoder the sweeps use, or replace it with nothing.

use crate::trace::{SpanId, Tracer};
use quest_surface::{
    Correction, CorrectionBatch, Decoder, DecodingGraph, EventPlanes, NodeId, UnionFindDecoder,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Union-find with a span around every batch entry point, so a sweep
/// point's sampler self time is its span minus these children.
pub struct TimedDecoder<'a> {
    inner: UnionFindDecoder,
    tracer: &'a Tracer,
    /// The sweep-point span decode calls currently nest under.
    parent: AtomicUsize,
    pub sparse_calls: AtomicU64,
    pub sparse_shots: AtomicU64,
    pub plane_calls: AtomicU64,
    pub plane_shots: AtomicU64,
}

impl<'a> TimedDecoder<'a> {
    pub fn new(tracer: &'a Tracer) -> TimedDecoder<'a> {
        TimedDecoder {
            inner: UnionFindDecoder::new(),
            tracer,
            parent: AtomicUsize::new(0),
            sparse_calls: AtomicU64::new(0),
            sparse_shots: AtomicU64::new(0),
            plane_calls: AtomicU64::new(0),
            plane_shots: AtomicU64::new(0),
        }
    }

    pub fn set_parent(&self, parent: SpanId) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    fn parent(&self) -> Option<SpanId> {
        Some(self.parent.load(Ordering::Relaxed))
    }
}

impl Decoder for TimedDecoder<'_> {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.inner.decode(graph, events)
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        self.sparse_calls.fetch_add(1, Ordering::Relaxed);
        self.sparse_shots
            .fetch_add(event_sets.len() as u64, Ordering::Relaxed);
        self.tracer.span("surface.decode_many", self.parent(), |_| {
            self.inner.decode_many(graph, event_sets)
        })
    }

    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        self.plane_calls.fetch_add(1, Ordering::Relaxed);
        self.plane_shots
            .fetch_add(planes.shots() as u64, Ordering::Relaxed);
        self.tracer
            .span("surface.decode_planes", self.parent(), |_| {
                self.inner.decode_planes(graph, planes, out);
            });
    }
}

/// One `decode_planes` call's input, copied out of the sampler.
pub struct PlaneChunk {
    pub planes: Vec<u64>,
    pub nodes: usize,
    pub blocks: usize,
    pub shots: usize,
}

/// Union-find that also keeps a copy of everything it was asked to
/// decode: the event corpora the decoder kernels replay.
#[derive(Default)]
pub struct CaptureDecoder {
    inner: UnionFindDecoder,
    pub sparse: Mutex<Vec<Vec<Vec<NodeId>>>>,
    pub planes: Mutex<Vec<PlaneChunk>>,
}

impl Decoder for CaptureDecoder {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.inner.decode(graph, events)
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        self.sparse
            .lock()
            .expect("capture is single-threaded")
            .push(event_sets.to_vec());
        self.inner.decode_many(graph, event_sets)
    }

    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        let copy = (0..planes.nodes())
            .flat_map(|node| planes.plane(node).iter().copied())
            .collect();
        self.planes
            .lock()
            .expect("capture is single-threaded")
            .push(PlaneChunk {
                planes: copy,
                nodes: planes.nodes(),
                blocks: planes.blocks(),
                shots: planes.shots(),
            });
        self.inner.decode_planes(graph, planes, out);
    }
}

/// A decoder that corrects nothing: what remains of a sweep is the
/// sampler, event extraction and the sparse scatter alone.
pub struct NullDecoder;

impl Decoder for NullDecoder {
    fn decode(&self, _graph: &DecodingGraph, _events: &[NodeId]) -> Correction {
        Correction::default()
    }

    fn decode_many(&self, _graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        vec![Correction::default(); event_sets.len()]
    }

    fn decode_planes(
        &self,
        _graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        out.clear();
        for _ in 0..planes.shots() {
            out.finish_shot();
        }
    }
}
