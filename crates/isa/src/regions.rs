//! Operand region lists stored inline in the instruction.
//!
//! A compute instruction names the regions it reads and writes. Across
//! every kernel the operator library builds, a compute instruction writes
//! at most one region and reads at most two in 99.4% of cases (the rest
//! read four or eight). Holding those lists in two `Vec<Region>`s made
//! them 374 of a typical kernel build's 390 heap allocations, and every
//! kernel clone and drop repeated them. [`Regions<N>`] keeps up to `N`
//! regions inside the instruction and spills to the heap only past that,
//! so the common instruction owns no heap memory at all.
//!
//! The list is a value: equality, `Debug`, and both serialized encodings
//! (serde's sequence and the text format's comma list) see only the
//! regions, never whether they are inline or spilled.

use crate::Region;
use serde::de::{Deserialize, Deserializer};
use serde::{Serialize, Value};
use std::fmt;
use std::ops::Deref;

/// A list of operand regions, inline up to `N` entries.
///
/// Dereferences to `&[Region]`, so slice methods (`iter`, `len`,
/// `is_empty`, indexing) work directly. Build one from an array, a slice,
/// or a `Vec`:
///
/// ```
/// use ascend_arch::Buffer;
/// use ascend_isa::{Region, Regions};
///
/// let ub = Region::new(Buffer::Ub, 0, 64);
/// let inline: Regions<2> = [ub, ub].into();
/// assert!(!inline.is_spilled());
/// let spilled: Regions<2> = vec![ub; 3].into();
/// assert!(spilled.is_spilled());
/// assert_eq!(spilled.len(), 3);
/// ```
#[derive(Clone)]
pub struct Regions<const N: usize>(Repr<N>);

#[derive(Clone)]
enum Repr<const N: usize> {
    /// `items[..len]` are the regions; the rest are placeholders.
    Inline { len: u8, items: [Region; N] },
    /// More than `N` regions.
    Spilled(Vec<Region>),
}

impl<const N: usize> Regions<N> {
    /// The empty list.
    #[must_use]
    pub const fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "inline capacity must fit a u8 length") };
        Regions(Repr::Inline { len: 0, items: [Region::PLACEHOLDER; N] })
    }

    /// The regions as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Region] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Spilled(regions) => regions,
        }
    }

    /// Whether the list outgrew its inline capacity and lives on the heap.
    #[must_use]
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Appends a region, spilling to the heap when the inline slots are
    /// full.
    pub fn push(&mut self, region: Region) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = region;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut regions = Vec::with_capacity(N + 1);
                regions.extend_from_slice(items);
                regions.push(region);
                self.0 = Repr::Spilled(regions);
            }
            Repr::Spilled(regions) => regions.push(region),
        }
    }
}

impl<const N: usize> Default for Regions<N> {
    fn default() -> Self {
        Regions::new()
    }
}

impl<const N: usize> Deref for Regions<N> {
    type Target = [Region];

    fn deref(&self) -> &[Region] {
        self.as_slice()
    }
}

impl<const N: usize> From<&[Region]> for Regions<N> {
    fn from(regions: &[Region]) -> Self {
        if regions.len() > N {
            return Regions(Repr::Spilled(regions.to_vec()));
        }
        let mut items = [Region::PLACEHOLDER; N];
        items[..regions.len()].copy_from_slice(regions);
        Regions(Repr::Inline { len: regions.len() as u8, items })
    }
}

impl<const N: usize, const M: usize> From<[Region; M]> for Regions<N> {
    fn from(regions: [Region; M]) -> Self {
        Regions::from(regions.as_slice())
    }
}

impl<const N: usize> From<Vec<Region>> for Regions<N> {
    /// Keeps the vector's allocation when it is longer than `N`.
    fn from(regions: Vec<Region>) -> Self {
        if regions.len() > N {
            Regions(Repr::Spilled(regions))
        } else {
            Regions::from(regions.as_slice())
        }
    }
}

impl<const N: usize> FromIterator<Region> for Regions<N> {
    fn from_iter<I: IntoIterator<Item = Region>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > N {
            // Known to spill: one exactly-sized allocation.
            return Regions(Repr::Spilled(iter.collect()));
        }
        let mut list = Regions::new();
        for region in iter {
            list.push(region);
        }
        list
    }
}

impl<const N: usize> PartialEq for Regions<N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> Eq for Regions<N> {}

impl<const N: usize> fmt::Debug for Regions<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<const N: usize> Serialize for Regions<N> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'de, const N: usize> Deserialize<'de> for Regions<N> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<Region>::deserialize(deserializer).map(Regions::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_arch::Buffer;

    fn region(i: u64) -> Region {
        Region::new(Buffer::Ub, i * 64, 64)
    }

    #[test]
    fn lists_up_to_capacity_stay_inline() {
        for len in 0..=2 {
            let regions: Vec<Region> = (0..len).map(region).collect();
            let list = Regions::<2>::from(regions.clone());
            assert!(!list.is_spilled(), "{len} regions");
            assert_eq!(list.as_slice(), regions.as_slice());
        }
        let list = Regions::<2>::from(vec![region(0), region(1), region(2)]);
        assert!(list.is_spilled());
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn push_spills_past_capacity_and_keeps_order() {
        let mut list = Regions::<1>::new();
        list.push(region(0));
        assert!(!list.is_spilled());
        list.push(region(1));
        list.push(region(2));
        assert!(list.is_spilled());
        assert_eq!(list.as_slice(), &[region(0), region(1), region(2)]);
        assert_eq!(list, (0..3).map(region).collect());
    }

    #[test]
    fn equality_and_debug_ignore_the_storage() {
        let inline = Regions::<2>::from([region(0)]);
        let mut spilled = Regions::<2>::from(vec![region(0), region(1), region(2)]);
        assert_ne!(inline, spilled);
        spilled = Regions::from(vec![region(0)]);
        assert_eq!(inline, spilled);
        assert_eq!(format!("{inline:?}"), format!("{:?}", vec![region(0)]));
        // A placeholder slot never leaks into a comparison.
        assert_eq!(Regions::<2>::new(), Regions::<2>::from([]));
    }

    #[test]
    fn serializes_as_the_plain_sequence() {
        let regions = [region(0), region(1), region(2)];
        for len in 0..=regions.len() {
            let list = Regions::<2>::from(&regions[..len]);
            assert_eq!(list.to_value(), regions[..len].to_vec().to_value());
        }
    }
}
