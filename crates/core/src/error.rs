//! Typed construction errors for the simulation systems.
//!
//! Every public constructor in this crate validates its parameters and
//! returns a [`BuildError`] instead of panicking, so front ends (the CLI,
//! the runtime) can surface a one-line diagnostic to the user. The enum
//! is hand-rolled in the `thiserror` style (a variant per failure, a
//! `Display` message each) because the workspace vendors no proc-macro
//! crates.

use std::fmt;

/// A system constructor rejected its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The surface-code distance is not an odd number ≥ 3.
    InvalidDistance(usize),
    /// A probability parameter lies outside `[0, 1]`.
    InvalidProbability {
        /// Which parameter (e.g. `"error rate"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A multi-tile system needs at least one tile.
    NoTiles,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidDistance(d) => {
                write!(f, "code distance must be an odd number >= 3, got {d}")
            }
            BuildError::InvalidProbability { what, value } => {
                write!(f, "{what} {value} outside [0, 1]")
            }
            BuildError::NoTiles => write!(f, "need at least one tile"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A transversal logical CNOT between tiles was rejected.
///
/// Raised before any state is touched: a rejected CNOT leaves the
/// substrate, the Pauli frames, and the syndrome references exactly as
/// they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnotError {
    /// A tile index is out of range for the system.
    TileOutOfRange {
        /// The offending index.
        tile: usize,
        /// How many tiles the system has.
        tiles: usize,
    },
    /// Control and target name the same tile.
    SameTile {
        /// The coinciding index.
        tile: usize,
    },
    /// A tile has not yet run a QECC cycle, so it has no syndrome
    /// reference to propagate through the gate.
    ReferenceNotSettled {
        /// The unsettled tile.
        tile: usize,
    },
    /// The two tiles' syndrome references have different widths (the
    /// tiles are not the same code distance).
    ReferenceWidthMismatch {
        /// Checks in the reference being updated.
        expected: usize,
        /// Checks in the partner's reference.
        got: usize,
    },
}

impl fmt::Display for CnotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CnotError::TileOutOfRange { tile, tiles } => {
                write!(f, "tile {tile} out of range for a {tiles}-tile system")
            }
            CnotError::SameTile { tile } => {
                write!(f, "control and target tiles must differ (both {tile})")
            }
            CnotError::ReferenceNotSettled { tile } => {
                write!(
                    f,
                    "tile {tile} must run at least one QECC cycle before a transversal CNOT"
                )
            }
            CnotError::ReferenceWidthMismatch { expected, got } => {
                write!(f, "syndrome reference width mismatch: {expected} vs {got}")
            }
        }
    }
}

impl std::error::Error for CnotError {}

/// Validates a surface-code distance.
pub(crate) fn check_distance(d: usize) -> Result<(), BuildError> {
    if d < 3 || d.is_multiple_of(2) {
        return Err(BuildError::InvalidDistance(d));
    }
    Ok(())
}

/// Validates a probability parameter.
pub(crate) fn check_probability(what: &'static str, value: f64) -> Result<(), BuildError> {
    if !(0.0..=1.0).contains(&value) {
        return Err(BuildError::InvalidProbability { what, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_one_line() {
        let errors = [
            BuildError::InvalidDistance(4),
            BuildError::InvalidProbability {
                what: "error rate",
                value: 1.5,
            },
            BuildError::NoTiles,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.contains('\n'), "{msg:?}");
            assert!(!msg.is_empty());
        }
    }

    #[test]
    fn checks_reject_and_accept() {
        assert!(check_distance(3).is_ok());
        assert!(check_distance(7).is_ok());
        assert!(check_distance(2).is_err());
        assert!(check_distance(4).is_err());
        assert!(check_probability("p", 0.0).is_ok());
        assert!(check_probability("p", 1.0).is_ok());
        assert!(check_probability("p", -0.1).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
    }
}
