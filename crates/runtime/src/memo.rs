//! What every run of one code distance shares, kept by a
//! [`Runtime`](crate::Runtime) from one run to the next.
//!
//! Three things a run needs depend on the code distance alone:
//!
//! * **The template MCE.** The lattice, the QECC microcode and its
//!   resolved words, the tile geometry and both decoder pipelines' graph
//!   and lookup table are fixed by the distance. Every tile of a run is a
//!   clone of the template, and a clone shares all of that behind `Arc`s
//!   (see [`Mce`]), so the memo builds it once per distance.
//! * **Trails.** The cycles a fresh tile runs on its reference tableau
//!   until its tape locks do not depend on the seed
//!   ([`quest_stabilizer::Trail`]), and each is kept with the kernel
//!   that serves it. The first run whose fresh tiles find no trail lays
//!   them, its master publishes them here, and the fresh tiles of every
//!   later run apply their kernels instead of running those cycles on a
//!   tableau, then serve every cycle after them from the trail's locked
//!   kernel: they compile nothing. A trail is kept per first-mark key and
//!   starting tableau, so a `|+⟩` tile publishing first does not keep
//!   `|0⟩` tiles off the fast path.
//! * **Global decodes.** An escalation is decoded on the distance's
//!   single-round graph of its kind, and a decode is a pure function of
//!   the engine, the graph and the event list. [`Decodes`] holds the two
//!   graphs the master's decode lane reads, and the [`Answer`] of each
//!   `(decoder, kind, events)` decoded so far: the data qubits the
//!   correction flips, as words, and the decode's [`CostReport`]. The lane
//!   answers a repeated escalation from here, replaying its cost into its
//!   ledger, and decodes only what it has not seen. The map is looked up
//!   and added to under its own lock, never held across a decode.
//!
//! None of it shows in a report: a clone of the template is the MCE
//! [`Mce::new`] builds, a block following a trail answers, draws and
//! holds exactly what a block laying it does, and a kept answer is what
//! the engine would answer again. The memo holds one entry per distance,
//! at most [`TRAILS_PER_DISTANCE`] trails and at most
//! [`DECODES_PER_DISTANCE`] answers per entry.

use quest_core::{Mce, MCE_IBUF_BYTES};
use quest_stabilizer::{Trail, Trails};
use quest_surface::decoder::{BatchGraphs, CostReport, DecoderChoice};
use quest_surface::{NodeId, RotatedLattice, StabKind};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most trails kept per distance. A run's fresh tiles start from `|0⟩`
/// or `|+⟩` preparations, under one key, so two are in use; the rest is
/// room for programs that begin differently, and a bound on what the
/// memo can hold.
pub(crate) const TRAILS_PER_DISTANCE: usize = 4;

/// Most global-decode answers kept per distance, over every decoder and
/// both kinds. A single-round escalation at d = 5 has at most 12 events
/// of a kind and mostly two to four: a few hundred sets make up nearly
/// all of them. Past the cap a decode is answered and not kept.
pub(crate) const DECODES_PER_DISTANCE: usize = 4096;

/// What the runs of one distance share.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    /// Every tile of a fresh run is a clone of this MCE.
    pub(crate) template: Arc<Mce>,
    /// The trails published so far.
    pub(crate) trails: Trails,
    /// The distance's decoding graphs and the decodes answered so far.
    pub(crate) decodes: Arc<Decodes>,
}

/// One global decode's answer: the data qubits its correction flips,
/// bit `q % 64` of word `q / 64`, and what the decode cost.
#[derive(Debug, Clone)]
pub(crate) struct Answer {
    pub(crate) flips: Arc<[u64]>,
    pub(crate) cost: CostReport,
}

/// Answers by engine and kind, then by event list.
type AnswerMap = BTreeMap<(DecoderChoice, StabKind), BTreeMap<Box<[NodeId]>, Answer>>;

/// The global decodes of one distance: the single-round graphs the
/// decode lane reads, and the answers given so far.
pub(crate) struct Decodes {
    graphs: BatchGraphs,
    /// Words of a correction: one bit per data qubit.
    words: usize,
    answers: Mutex<(AnswerMap, usize)>,
}

impl fmt::Debug for Decodes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decodes")
            .field("answers", &self.len())
            .finish_non_exhaustive()
    }
}

impl Decodes {
    pub(crate) fn new(lattice: &RotatedLattice) -> Decodes {
        Decodes {
            graphs: BatchGraphs::new(lattice),
            words: lattice.num_data().div_ceil(64),
            answers: Mutex::default(),
        }
    }

    /// The single-round decoding graphs of both kinds.
    pub(crate) fn graphs(&self) -> &BatchGraphs {
        &self.graphs
    }

    /// Words of a correction's flips.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The kept answer to decoding `events` of `kind` with `choice`.
    pub(crate) fn answer(
        &self,
        choice: DecoderChoice,
        kind: StabKind,
        events: &[NodeId],
    ) -> Option<Answer> {
        self.lock().0.get(&(choice, kind))?.get(events).cloned()
    }

    /// Keeps `answer` for `(choice, kind, events)` unless the distance
    /// holds [`DECODES_PER_DISTANCE`] answers already (or this one: two
    /// runs sharing the memo may decode the same events at once, and
    /// answer alike).
    pub(crate) fn keep(
        &self,
        choice: DecoderChoice,
        kind: StabKind,
        events: &[NodeId],
        answer: &Answer,
    ) {
        let mut guard = self.lock();
        let (map, kept) = &mut *guard;
        if *kept >= DECODES_PER_DISTANCE {
            return;
        }
        let by_events = map.entry((choice, kind)).or_default();
        if !by_events.contains_key(events) {
            by_events.insert(events.into(), answer.clone());
            *kept += 1;
        }
    }

    /// Answers kept.
    pub(crate) fn len(&self) -> usize {
        self.lock().1
    }

    fn lock(&self) -> MutexGuard<'_, (AnswerMap, usize)> {
        // Nothing panics while holding this lock, and what it guards is
        // whole between two statements; recovering the guard is safe.
        self.answers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One [`Shared`] per code distance a run has used, behind one lock
/// that is held only to look an entry up or to publish trails.
#[derive(Default)]
pub(crate) struct Memo {
    by_distance: Mutex<BTreeMap<usize, Shared>>,
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.entries();
        let trails: BTreeMap<usize, usize> = entries
            .iter()
            .map(|(&distance, shared)| (distance, shared.trails.len()))
            .collect();
        let decodes: BTreeMap<usize, usize> = entries
            .iter()
            .map(|(&distance, shared)| (distance, shared.decodes.len()))
            .collect();
        f.debug_struct("Memo")
            .field("trails", &trails)
            .field("decodes", &decodes)
            .finish()
    }
}

impl Memo {
    /// What runs at `distance` share, built on the first call.
    pub(crate) fn shared(&self, distance: usize) -> Shared {
        self.entries()
            .entry(distance)
            .or_insert_with(|| {
                let lattice = RotatedLattice::new(distance);
                Shared {
                    template: Arc::new(Mce::new(&lattice, MCE_IBUF_BYTES)),
                    trails: Arc::new([]),
                    decodes: Arc::new(Decodes::new(&lattice)),
                }
            })
            .clone()
    }

    /// Keeps the trails a run at `distance` laid, each unless one that
    /// starts alike is kept already or the distance holds
    /// [`TRAILS_PER_DISTANCE`]. Runs that start later follow them; runs
    /// under way keep the trails they started with.
    pub(crate) fn publish(&self, distance: usize, laid: Vec<Trail>) {
        if laid.is_empty() {
            return;
        }
        let mut entries = self.entries();
        let Some(shared) = entries.get_mut(&distance) else {
            return;
        };
        let mut trails = shared.trails.to_vec();
        for trail in laid {
            if trails.len() < TRAILS_PER_DISTANCE && !trails.iter().any(|t| t.same_start(&trail)) {
                trails.push(Arc::new(trail));
            }
        }
        if trails.len() > shared.trails.len() {
            shared.trails = trails.into();
        }
    }

    fn entries(&self) -> MutexGuard<'_, BTreeMap<usize, Shared>> {
        // Nothing panics while holding this lock, and what it guards is
        // whole between two statements; recovering the guard is safe.
        self.by_distance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}
