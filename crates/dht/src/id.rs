//! Ring identifiers and digit/prefix arithmetic.
//!
//! Pastry routes by correcting one *digit* (of `b` bits) of the key per
//! hop. We use a 64-bit identifier space — ample for the paper's largest
//! experiment (16 384 simulated nodes) while keeping arithmetic cheap.

use std::fmt;

use crate::md5;

/// A 64-bit identifier on the DHT ring.
///
/// Both nodes and keys (hashed group attributes) live in this space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub u64);

/// Number of bits in an [`Id`].
pub const ID_BITS: u32 = 64;

impl Id {
    /// Derives the ring ID of a group attribute by MD-5, as in the paper
    /// ("Moara uses MD-5 to hash the group-attribute field in p"). The top
    /// 64 bits of the digest form the ID.
    pub fn of_attribute(attribute: &str) -> Id {
        let d = md5::digest(attribute.as_bytes());
        Id(u64::from_be_bytes([
            d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7],
        ]))
    }

    /// The `i`-th digit (0 = most significant) with `bits` bits per digit.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0, does not divide 64, or `i` is out of range.
    pub fn digit(self, i: u32, bits: u32) -> u32 {
        assert!(
            bits > 0 && ID_BITS.is_multiple_of(bits),
            "bits must divide 64"
        );
        let digits = ID_BITS / bits;
        assert!(i < digits, "digit index out of range");
        let shift = ID_BITS - bits * (i + 1);
        ((self.0 >> shift) & ((1u64 << bits) - 1)) as u32
    }

    /// Length, in digits of `bits` bits, of the shared prefix of `self` and
    /// `other`.
    pub fn prefix_len(self, other: Id, bits: u32) -> u32 {
        let diff = self.0 ^ other.0;
        if diff == 0 {
            return ID_BITS / bits;
        }
        diff.leading_zeros() / bits
    }

    /// Distance going clockwise (increasing ids, wrapping) from `self` to
    /// `other`.
    pub fn clockwise_distance(self, other: Id) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Minimal ring distance between two ids (either direction).
    pub fn ring_distance(self, other: Id) -> u64 {
        let cw = self.clockwise_distance(other);
        cw.min(cw.wrapping_neg())
    }

    /// True if `self` is numerically closer to `key` than `other` is,
    /// breaking exact ties by smaller id (a total order, so exactly one of
    /// two distinct nodes is "closer" — this makes key ownership unique).
    pub fn closer_to(self, key: Id, other: Id) -> bool {
        let da = self.ring_distance(key);
        let db = other.ring_distance(key);
        da < db || (da == db && self.0 < other.0)
    }
}

impl fmt::Display for Id {
    /// Shows the full 16-hex-digit id (prefix routing is easiest to debug
    /// in hex).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl moara_wire::Wire for Id {
    fn encode(&self, out: &mut impl moara_wire::Sink) {
        moara_wire::Wire::encode(&self.0, out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, moara_wire::WireError> {
        <u64 as moara_wire::Wire>::decode(buf).map(Id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_extract_msb_first() {
        let id = Id(0xABCD_0000_0000_0000);
        assert_eq!(id.digit(0, 4), 0xA);
        assert_eq!(id.digit(1, 4), 0xB);
        assert_eq!(id.digit(2, 4), 0xC);
        assert_eq!(id.digit(3, 4), 0xD);
        assert_eq!(id.digit(15, 4), 0);
        // One-bit digits.
        assert_eq!(Id(1 << 63).digit(0, 1), 1);
        assert_eq!(Id(1 << 62).digit(0, 1), 0);
        assert_eq!(Id(1 << 62).digit(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "digit index out of range")]
    fn digit_out_of_range_panics() {
        Id(0).digit(16, 4);
    }

    #[test]
    fn prefix_len_counts_shared_digits() {
        let a = Id(0xAB00_0000_0000_0000);
        let b = Id(0xAB70_0000_0000_0000);
        assert_eq!(a.prefix_len(b, 4), 2);
        assert_eq!(a.prefix_len(a, 4), 16);
        assert_eq!(Id(0).prefix_len(Id(1 << 63), 4), 0);
    }

    #[test]
    fn ring_distance_wraps() {
        let a = Id(u64::MAX);
        let b = Id(5);
        assert_eq!(a.ring_distance(b), 6);
        assert_eq!(b.ring_distance(a), 6);
        assert_eq!(a.clockwise_distance(b), 6);
    }

    #[test]
    fn closer_to_is_total_for_distinct_ids() {
        let key = Id(100);
        let a = Id(96);
        let b = Id(104);
        // equidistant: tie broken toward smaller id.
        assert!(a.closer_to(key, b));
        assert!(!b.closer_to(key, a));
        assert!(Id(99).closer_to(key, a));
    }

    #[test]
    fn attribute_hash_spreads() {
        let ids: std::collections::HashSet<u64> = ["CPU-Util", "Mem-Free", "ServiceX", "Apache"]
            .iter()
            .map(|s| Id::of_attribute(s).0)
            .collect();
        assert_eq!(ids.len(), 4);
        // Stable across calls.
        assert_eq!(Id::of_attribute("CPU-Util"), Id::of_attribute("CPU-Util"));
    }
}
