//! Block identifiers and chain heights.

use crate::hash::Hash256;
use std::fmt;

/// A block identifier: the SHA-256 digest that names a block.
pub type BlockId = Hash256;

/// A 0-based chain height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Height(pub u64);

impl Height {
    /// Genesis height.
    pub const GENESIS: Height = Height(0);

    /// The next height.
    pub fn next(self) -> Height {
        Height(self.0 + 1)
    }

    /// Saturating distance to another height (how many blocks behind).
    pub fn behind(self, tip: Height) -> u64 {
        tip.0.saturating_sub(self.0)
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_behind() {
        assert_eq!(Height(5).behind(Height(7)), 2);
        assert_eq!(Height(7).behind(Height(5)), 0);
        assert_eq!(Height::GENESIS.next(), Height(1));
    }
}
