//! Property-based tests for the chain primitives' hashing.

use bp_chain::hash::Hash256;
use proptest::prelude::*;

proptest! {
    /// `to_hex` spells each byte as two hex digits, in order.
    #[test]
    fn hash_hex_round_trip(bytes in any::<[u8; 32]>()) {
        let hex = Hash256(bytes).to_hex();
        prop_assert_eq!(hex.len(), 64);
        let decoded: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        prop_assert_eq!(decoded, bytes.to_vec());
    }

    /// Distinct inputs (very probably) hash differently; same input always
    /// hashes identically.
    #[test]
    fn hashing_is_deterministic(a in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(Hash256::digest(&a), Hash256::digest(&a));
        let mut b = a.clone();
        b.push(0x42);
        prop_assert_ne!(Hash256::digest(&a), Hash256::digest(&b));
    }
}
