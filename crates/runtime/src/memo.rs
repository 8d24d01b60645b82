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
//!   that serves it. Before a run is dispatched, [`Memo::lay_ahead`]
//!   lays the trail of each preparation its fresh tiles start from that
//!   the memo has not tried yet, on one scratch tile, and publishes it at
//!   once: every tile of that run, and of every run after it, applies
//!   the trail's kernels instead of running those cycles on a tableau,
//!   then serves every cycle after them from the trail's locked kernel,
//!   compiling nothing. A tile that starts otherwise lays its own trail
//!   in the run, and the master publishes it when the run reports. A
//!   trail is kept per first-mark key and starting tableau, so `|0⟩` and
//!   `|+⟩` tiles each have their own. The first tile to read out from a
//!   trail's lock records the readout on the trail, and every tile after
//!   it reads out from that record.
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
//! holds exactly what a block laying it does (the scratch tile that lays
//! one ahead of a run draws from no run's streams and touches no
//! ledger), and a kept answer is what the engine would answer again. The
//! memo holds one entry per distance, at most [`TRAILS_PER_DISTANCE`]
//! trails and at most [`DECODES_PER_DISTANCE`] answers per entry.

use quest_core::tile::{self, LogicalBasis};
use quest_core::{Mce, Substrate, MCE_IBUF_BYTES};
use quest_stabilizer::{SeedableRng, StdRng, Trail, Trails};
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

/// Most QECC cycles a scratch tile runs to lay a trail ahead of a run.
/// A QECC cycle's trail is whole at its fourth mark, and a block lays no
/// trail longer than eight cycles, so a tile that has handed none over
/// by its ninth cycle never will.
const LAYING_CYCLES: usize = 9;

/// What the runs of one distance share.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    /// Every tile of a fresh run is a clone of this MCE.
    pub(crate) template: Arc<Mce>,
    /// The trails published so far.
    pub(crate) trails: Trails,
    /// Per preparation basis, indexed by [`basis_slot`], whether its
    /// trail has been laid ahead of a run, or tried.
    tried: [bool; 2],
    /// The distance's decoding graphs and the decodes answered so far.
    pub(crate) decodes: Arc<Decodes>,
}

impl Shared {
    /// Whether the trail of a fresh tile prepared in `basis` has been
    /// laid ahead of a run, or tried ([`Memo::lay_ahead`]).
    pub(crate) fn tried(&self, basis: LogicalBasis) -> bool {
        self.tried[basis_slot(basis)]
    }
}

/// Where `basis` sits in [`Shared::tried`].
fn basis_slot(basis: LogicalBasis) -> usize {
    match basis {
        LogicalBasis::Zero => 0,
        LogicalBasis::Plus => 1,
    }
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
                    tried: [false; 2],
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
        if let Some(shared) = self.entries().get_mut(&distance) {
            keep(shared, laid);
        }
    }

    /// Lays, on a scratch tile, the trail of a fresh tile prepared in
    /// each of `bases` that the memo has not tried at `distance` yet, and
    /// publishes it at once, so that every fresh tile of the run about to
    /// start follows it from its first cycle. A basis counts as tried
    /// even when its tile laid nothing. Returns what runs at `distance`
    /// share now, and how many trails were laid.
    pub(crate) fn lay_ahead(&self, distance: usize, bases: &[LogicalBasis]) -> (Shared, u64) {
        let mut laid = 0;
        for &basis in bases {
            let shared = self.shared(distance);
            if shared.tried(basis) {
                continue;
            }
            // Laid outside the lock: it takes a few cycles on a tableau.
            let trail = lay(&shared.template, basis);
            laid += u64::from(trail.is_some());
            if let Some(shared) = self.entries().get_mut(&distance) {
                shared.tried[basis_slot(basis)] = true;
                keep(shared, trail);
            }
        }
        (self.shared(distance), laid)
    }

    fn entries(&self) -> MutexGuard<'_, BTreeMap<usize, Shared>> {
        // Nothing panics while holding this lock, and what it guards is
        // whole between two statements; recovering the guard is safe.
        self.by_distance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Adds `laid` to a distance's trails, each unless one that starts alike
/// is kept already or the distance holds [`TRAILS_PER_DISTANCE`].
fn keep(shared: &mut Shared, laid: impl IntoIterator<Item = Trail>) {
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

/// The trail a fresh tile prepared in `basis` lays, from the calls a
/// shard makes on one — a clone of the template on a fresh block offered
/// no trail, the preparation, then QECC cycles — made on a scratch tile
/// with no noise and a throwaway stream: the reference sees neither, so
/// the trail is the one any run's tile would lay. `None` if it laid none
/// within [`LAYING_CYCLES`].
fn lay(template: &Mce, basis: LogicalBasis) -> Option<Trail> {
    let mut mce = template.clone();
    let none: Trails = Arc::new([]);
    let mut substrate = Substrate::with_trails(1, mce.lattice().num_qubits(), &none);
    let mut rng = StdRng::seed_from_u64(0);
    tile::prep_logical(&mut mce, basis, substrate.block_mut(0), &mut rng);
    for _ in 0..LAYING_CYCLES {
        mce.run_qecc_cycle(substrate.block_mut(0), &mut rng);
        if let Some(trail) = substrate.take_trails().pop() {
            return Some(trail);
        }
    }
    None
}
