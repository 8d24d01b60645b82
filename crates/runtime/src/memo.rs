//! What every run of one code distance shares, kept by a
//! [`Runtime`](crate::Runtime) from one run to the next.
//!
//! Two things a run needs depend on the code distance alone:
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
//!
//! Neither shows in a report: a clone of the template is the MCE
//! [`Mce::new`] builds, and a block following a trail answers, draws and
//! holds exactly what a block laying it does. The memo holds one entry
//! per distance and at most [`TRAILS_PER_DISTANCE`] trails per entry.

use quest_core::{Mce, MCE_IBUF_BYTES};
use quest_stabilizer::{Trail, Trails};
use quest_surface::RotatedLattice;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most trails kept per distance. A run's fresh tiles start from `|0⟩`
/// or `|+⟩` preparations, under one key, so two are in use; the rest is
/// room for programs that begin differently, and a bound on what the
/// memo can hold.
pub(crate) const TRAILS_PER_DISTANCE: usize = 4;

/// What the runs of one distance share.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    /// Every tile of a fresh run is a clone of this MCE.
    pub(crate) template: Arc<Mce>,
    /// The trails published so far.
    pub(crate) trails: Trails,
}

/// One [`Shared`] per code distance a run has used, behind one lock
/// that is held only to look an entry up or to publish trails.
#[derive(Default)]
pub(crate) struct Memo {
    by_distance: Mutex<BTreeMap<usize, Shared>>,
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let trails: BTreeMap<usize, usize> = self
            .entries()
            .iter()
            .map(|(&distance, shared)| (distance, shared.trails.len()))
            .collect();
        f.debug_struct("Memo").field("trails", &trails).finish()
    }
}

impl Memo {
    /// What runs at `distance` share, built on the first call.
    pub(crate) fn shared(&self, distance: usize) -> Shared {
        self.entries()
            .entry(distance)
            .or_insert_with(|| Shared {
                template: Arc::new(Mce::new(&RotatedLattice::new(distance), MCE_IBUF_BYTES)),
                trails: Arc::new([]),
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
