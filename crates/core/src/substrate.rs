//! The simulated quantum substrate under a group of tiles.
//!
//! The paper gives every MCE its own tile and lets it run QECC there
//! with no help from anyone else. Tiles start in product states and stay
//! that way until a transversal CNOT couples two of them, so the
//! simulation keeps one [`FrameBlock`] per *entangled group* of tiles — a
//! block — instead of one register spanning them all: a measurement
//! scans the generators of its own block only, and a tile-cycle costs the
//! same however many tiles share a system or a shard.
//!
//! A block is a reference tableau under a Pauli frame. An MCE replays one
//! QECC cycle forever, and hands each cycle that merges nothing over as
//! one call ([`StabilizerSim::run_cycle`], keyed by the tile's offset in
//! its block). The block records the cycles on its reference until one
//! provably repeats — the same operations with the same reference
//! answers, and the reference back in the state it started from — and
//! from then on serves each from a kernel compiled from the recording:
//! the reference stops moving and a tile-cycle costs one pass over the
//! frame. Noise, being Pauli, never shows on a recording. Anything else
//! (a masked region, a logical word, a readout, a join) puts the block
//! back on its reference, at the old cost, until the cycle repeats
//! again. [`Substrate::replayed_cycles`] tells how many cycles a tile was
//! served by a kernel, so that a run which means to measure the fast
//! path can check that it did.
//!
//! Every tile begins as a block of its own. [`Substrate::join`] merges
//! the blocks of two tiles into their tensor product
//! ([`FrameBlock::append`]) and re-bases the MCEs of the tiles that
//! moved; a joined block is never split again, because nothing short of
//! measuring every qubit of a tile would prove it separable.
//!
//! [`MultiTileSystem`](crate::MultiTileSystem) and the `quest-runtime`
//! shard workers both hold their qubits in this one type, so the
//! reference system and the concurrent runtime cannot drift apart.
//! Neither the generators that describe a state nor the way a block
//! splits it into reference and frame ever shows in a result: whether a
//! measurement is random is a property of the state, a random outcome is
//! one draw from the tile's own RNG stream, and a deterministic outcome
//! does not depend on the generating set. Cloning a substrate (a
//! checkpoint) keeps the state and drops the tapes; the clone records
//! and locks them again.
//!
//! The first cycles of a fresh tile, until its tape locks, do not depend
//! on the seed: the reference sees no noise and no drawn bit. A
//! substrate built by [`Substrate::with_trails`] lets each fresh tile
//! follow a *trail* of those cycles laid by an earlier tile
//! ([`quest_stabilizer::Trail`]) instead of running them on its tableau,
//! and hands the trails its own tiles laid to [`Substrate::take_trails`];
//! `quest-runtime` keeps them across runs. [`Substrate::new`], which
//! [`MultiTileSystem`](crate::MultiTileSystem) uses, neither follows nor
//! lays one: it is the oracle.

use crate::error::CnotError;
use crate::mce::Mce;
use quest_stabilizer::{FrameBlock, StabilizerSim, Trail, Trails};
use std::sync::Arc;

/// Where a tile's qubits live: a block and the index of the tile's first
/// qubit within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Home {
    block: usize,
    offset: usize,
}

/// The qubits of a group of tiles, one [`FrameBlock`] per entangled group.
///
/// Tile `i` of the substrate belongs to `mces[i]` of its owner; the MCE's
/// [`substrate_index`](Mce::substrate_index) is relative to the block
/// [`Substrate::block_mut`] returns for that tile.
///
/// # Example
///
/// ```
/// use quest_core::substrate::Substrate;
/// use quest_core::{Mce, MCE_IBUF_BYTES};
/// use quest_stabilizer::StabilizerSim;
/// use quest_surface::RotatedLattice;
///
/// let lattice = RotatedLattice::new(3);
/// let mut mces = vec![Mce::new(&lattice, MCE_IBUF_BYTES); 3];
/// let mut substrate = Substrate::new(3, lattice.num_qubits());
/// assert_eq!(substrate.num_blocks(), 3);
///
/// substrate.join(&mut mces, 2, 0)?;
/// assert_eq!(substrate.num_blocks(), 2);
/// assert_eq!(substrate.block_mut(2).num_qubits(), 2 * lattice.num_qubits());
/// // Tile 2 now sits behind tile 0 in their shared block.
/// assert_eq!(mces[2].substrate_index(0), lattice.num_qubits());
/// assert_eq!(mces[1].substrate_index(0), 0);
/// # Ok::<(), quest_core::CnotError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Substrate {
    blocks: Vec<FrameBlock>,
    /// Indexed by tile.
    homes: Vec<Home>,
}

impl Substrate {
    /// `tiles` tiles of `tile_width` qubits each, every qubit in `|0⟩`
    /// and every tile in a block of its own.
    ///
    /// # Panics
    ///
    /// Panics if `tile_width` is zero.
    pub fn new(tiles: usize, tile_width: usize) -> Substrate {
        Substrate::of_blocks(tiles, || FrameBlock::new(tile_width))
    }

    /// [`Substrate::new`]'s tiles, each in a [`FrameBlock::fresh`] block
    /// that follows one of `trails` through its warm-up, or lays a trail
    /// of its own ([`Substrate::take_trails`]) if none starts where it
    /// does. Every outcome and RNG draw is [`Substrate::new`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `tile_width` is zero.
    pub fn with_trails(tiles: usize, tile_width: usize, trails: &Trails) -> Substrate {
        Substrate::of_blocks(tiles, || FrameBlock::fresh(tile_width, Arc::clone(trails)))
    }

    fn of_blocks(tiles: usize, block: impl FnMut() -> FrameBlock) -> Substrate {
        Substrate {
            blocks: std::iter::repeat_with(block).take(tiles).collect(),
            homes: (0..tiles).map(|block| Home { block, offset: 0 }).collect(),
        }
    }

    /// Takes the trails the blocks have laid: one per fresh tile that
    /// found none to follow and stayed on its own until its tape locked.
    pub fn take_trails(&mut self) -> Vec<Trail> {
        self.blocks
            .iter_mut()
            .filter_map(FrameBlock::take_trail)
            .collect()
    }

    /// Number of blocks: entangled groups of tiles, a never-coupled
    /// tile counting as a group of one.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether two tiles share a block (`false` if either is out of
    /// range).
    pub fn joined(&self, a: usize, b: usize) -> bool {
        match (self.homes.get(a), self.homes.get(b)) {
            (Some(a), Some(b)) => a.block == b.block,
            _ => false,
        }
    }

    /// The block holding `tile`'s qubits, along with those of every
    /// tile it has been joined with.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn block_mut(&mut self, tile: usize) -> &mut FrameBlock {
        &mut self.blocks[self.homes[tile].block]
    }

    /// QECC cycles of `tile` that its block served by a kernel, from a
    /// tape or a trail, never touching the reference tableau (zero for a
    /// tile out of range).
    /// The count restarts in a clone, which has no tapes.
    pub fn replayed_cycles(&self, tile: usize) -> u64 {
        self.homes.get(tile).map_or(0, |home| {
            self.blocks
                .get(home.block)
                .map_or(0, |block| block.replayed_cycles(home.offset))
        })
    }

    /// Brings tiles `a` and `b` into one block and returns it. If they
    /// already share one nothing changes. Otherwise the higher-numbered
    /// block is appended to the lower-numbered one, and every tile that
    /// lived in it is re-based: its home here and the substrate offset
    /// of its MCE (`mces[tile]`) both move up by the width of the block
    /// it was appended to.
    ///
    /// Joining consumes no randomness and leaves the joint state what it
    /// was, the tensor product of the two blocks' states.
    ///
    /// # Errors
    ///
    /// [`CnotError::TileOutOfRange`] if either tile is out of range, or
    /// if `mces` does not cover every tile of the substrate. Nothing is
    /// changed on error.
    pub fn join(
        &mut self,
        mces: &mut [Mce],
        a: usize,
        b: usize,
    ) -> Result<&mut FrameBlock, CnotError> {
        let tiles = self.homes.len().min(mces.len());
        let out_of_range = |tile: usize| CnotError::TileOutOfRange { tile, tiles };
        if mces.len() < self.homes.len() {
            return Err(out_of_range(mces.len()));
        }
        let block_of = |tile: usize| self.homes.get(tile).map(|home| home.block);
        let block_a = block_of(a).ok_or(out_of_range(a))?;
        let block_b = block_of(b).ok_or(out_of_range(b))?;
        let (kept, absorbed) = (block_a.min(block_b), block_a.max(block_b));
        if absorbed >= self.blocks.len() {
            // A home without its block: never constructed here, and a
            // typed error rather than an index panic if it ever is.
            return Err(out_of_range(if absorbed == block_a { a } else { b }));
        }
        if kept != absorbed {
            let moved = self.blocks.remove(absorbed);
            let shift = self.blocks[kept].num_qubits();
            self.blocks[kept].append(&moved);
            for (home, mce) in self.homes.iter_mut().zip(mces.iter_mut()) {
                if home.block == absorbed {
                    *home = Home {
                        block: kept,
                        offset: home.offset + shift,
                    };
                    mce.rebase(home.offset);
                } else if home.block > absorbed {
                    home.block -= 1;
                }
            }
        }
        Ok(&mut self.blocks[kept])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mce::MCE_IBUF_BYTES;
    use quest_stabilizer::Tableau;
    use quest_surface::RotatedLattice;

    fn setup(tiles: usize) -> (Vec<Mce>, Substrate, usize) {
        let lattice = RotatedLattice::new(3);
        let width = lattice.num_qubits();
        (
            vec![Mce::new(&lattice, MCE_IBUF_BYTES); tiles],
            Substrate::new(tiles, width),
            width,
        )
    }

    fn offsets(mces: &[Mce]) -> Vec<usize> {
        mces.iter().map(|m| m.substrate_index(0)).collect()
    }

    #[test]
    fn every_tile_starts_in_a_block_of_its_own() {
        let (mces, mut substrate, width) = setup(3);
        assert_eq!(substrate.num_blocks(), 3);
        for tile in 0..3 {
            assert_eq!(substrate.block_mut(tile).num_qubits(), width);
        }
        assert!(!substrate.joined(0, 1));
        assert_eq!(offsets(&mces), [0, 0, 0]);
    }

    #[test]
    fn joins_chain_and_rebase_the_moved_tiles() {
        let (mut mces, mut substrate, width) = setup(4);
        // 3 joins 1: block 3 is appended to block 1.
        substrate.join(&mut mces, 3, 1).unwrap();
        assert_eq!(substrate.num_blocks(), 3);
        assert!(substrate.joined(1, 3));
        assert_eq!(offsets(&mces), [0, 0, 0, width]);
        // {1, 3} joins 0: both move behind tile 0, order kept.
        substrate.join(&mut mces, 0, 3).unwrap();
        assert_eq!(substrate.num_blocks(), 2);
        assert_eq!(offsets(&mces), [0, width, 0, 2 * width]);
        assert_eq!(substrate.block_mut(3).num_qubits(), 3 * width);
        // Tile 2's block slid down one slot and is still its own.
        assert!(!substrate.joined(2, 0));
        assert_eq!(substrate.block_mut(2).num_qubits(), width);
        // Joining all tiles of a fresh substrate is the fresh monolith.
        substrate.join(&mut mces, 2, 1).unwrap();
        assert_eq!(substrate.num_blocks(), 1);
        assert!(substrate
            .block_mut(0)
            .to_tableau()
            .same_state(&Tableau::new(4 * width)));
    }

    #[test]
    fn joining_joined_tiles_changes_nothing() {
        let (mut mces, mut substrate, _) = setup(2);
        substrate.join(&mut mces, 0, 1).unwrap();
        let (before, before_offsets) = (substrate.clone(), offsets(&mces));
        substrate.join(&mut mces, 1, 0).unwrap();
        substrate.join(&mut mces, 1, 1).unwrap();
        assert_eq!(substrate, before);
        assert_eq!(offsets(&mces), before_offsets);
    }

    #[test]
    fn bad_joins_are_typed_errors_and_change_nothing() {
        let (mut mces, mut substrate, _) = setup(2);
        let before = substrate.clone();
        assert_eq!(
            substrate.join(&mut mces, 0, 2).unwrap_err(),
            CnotError::TileOutOfRange { tile: 2, tiles: 2 }
        );
        assert_eq!(
            substrate.join(&mut mces[..1], 0, 1).unwrap_err(),
            CnotError::TileOutOfRange { tile: 1, tiles: 1 }
        );
        assert_eq!(substrate, before);
        assert!(!substrate.joined(0, 7));
    }
}
