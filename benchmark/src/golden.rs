//! The committed simulated statistics of one pinned seed.
//!
//! Host time is what this benchmark measures; simulated statistics —
//! logical failures, detection events, the modelled bus ledger, modelled
//! decode cycles — are what it holds still. `golden.json` records them
//! for [`GOLDEN_SEED`] at [`Scale::REDUCED`] size; every traced run
//! recomputes its workload's entry, whatever seed it measures with, and
//! counts a difference as a failed operation. A change meant to alter
//! the modelled design regenerates the file (`--write-golden`) in a
//! benchmark change of its own.

use crate::json::Json;
use crate::workload::{build, Ops, Scale, NAMES};
use std::path::PathBuf;

pub const GOLDEN_SEED: u64 = 20_170_914;

const COMMITTED: &str = include_str!("../golden.json");

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// Recomputes one workload's pinned-seed statistics and compares them
/// with the committed entry: one checked operation.
pub fn check(workload: &str) -> Ops {
    let committed = Json::parse(COMMITTED).ok();
    let expected = committed.as_ref().and_then(|golden| golden.get(workload));
    let actual = build(workload, GOLDEN_SEED, Scale::REDUCED).map(|w| w.simulated_stats());
    let mut ops = Ops::default();
    ops.check(expected.is_some() && expected == actual.as_ref());
    ops
}

/// Regenerates `golden.json` from the code as it is.
pub fn write() -> Result<(), String> {
    let entries = NAMES.iter().filter_map(|&name| {
        build(name, GOLDEN_SEED, Scale::REDUCED).map(|w| (name, w.simulated_stats()))
    });
    let golden = Json::obj(entries.chain([("seed", Json::int(GOLDEN_SEED))]));
    std::fs::write(path(), golden.pretty()).map_err(|e| format!("cannot write golden.json: {e}"))
}
