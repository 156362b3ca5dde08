//! Buffer regions and capacity-checked bump allocation.

use crate::IsaError;
use ascend_arch::{Buffer, ChipSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A byte range inside one on-chip buffer.
///
/// Regions are the unit of memory bookkeeping: transfer instructions name a
/// source and a destination region, compute instructions declare the
/// regions they read and write, and the simulator serializes instructions
/// whose regions conflict (the paper's *spatial dependency*).
///
/// # Examples
///
/// ```
/// use ascend_arch::Buffer;
/// use ascend_isa::Region;
///
/// let a = Region::new(Buffer::Ub, 0, 1024);
/// let b = Region::new(Buffer::Ub, 512, 1024);
/// let c = Region::new(Buffer::Ub, 1024, 512);
/// assert!(a.overlaps(&b));
/// assert!(!a.overlaps(&c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    buffer: Buffer,
    offset: u64,
    len: u64,
}

impl Region {
    /// Filler for the unused inline slots of a [`Regions`](crate::Regions)
    /// list; never observable through its slice.
    pub(crate) const PLACEHOLDER: Region = Region { buffer: Buffer::Gm, offset: 0, len: 0 };

    /// Creates a region of `len` bytes at `offset` inside `buffer`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` overflows `u64`.
    #[must_use]
    pub fn new(buffer: Buffer, offset: u64, len: u64) -> Self {
        assert!(offset.checked_add(len).is_some(), "region end must not overflow u64");
        Region { buffer, offset, len }
    }

    /// The buffer this region lives in.
    #[must_use]
    pub fn buffer(&self) -> Buffer {
        self.buffer
    }

    /// Byte offset of the region start.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end offset.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether two regions share at least one byte.
    #[must_use]
    pub fn overlaps(&self, other: &Region) -> bool {
        self.buffer == other.buffer
            && !self.is_empty()
            && !other.is_empty()
            && self.offset < other.end()
            && other.offset < self.end()
    }

    /// A sub-region of `len` bytes starting `delta` bytes into this region.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit inside the region.
    #[must_use]
    pub fn slice(&self, delta: u64, len: u64) -> Region {
        assert!(
            delta + len <= self.len,
            "slice [{delta}, {}) exceeds region of {} bytes",
            delta + len,
            self.len
        );
        Region::new(self.buffer, self.offset + delta, len)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}..{}]", self.buffer, self.offset, self.end())
    }
}

/// A capacity-checked bump allocator over all buffers of one chip.
///
/// Mirrors how Ascend kernel authors statically partition the on-chip
/// buffers. Allocation never frees; use [`BufferAllocator::reset`] to reuse
/// a buffer from scratch (e.g. between kernels), or [`BufferAllocator::mark`]
/// / [`BufferAllocator::release_to`] for stack-style reuse.
///
/// # Examples
///
/// ```
/// use ascend_arch::{Buffer, ChipSpec};
/// use ascend_isa::BufferAllocator;
///
/// let chip = ChipSpec::training();
/// let mut alloc = BufferAllocator::new(&chip);
/// let a = alloc.alloc(Buffer::Ub, 4096)?;
/// let b = alloc.alloc(Buffer::Ub, 4096)?;
/// assert!(!a.overlaps(&b));
/// # Ok::<(), ascend_isa::IsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BufferAllocator {
    capacities: Vec<(Buffer, u64)>,
    cursors: Vec<(Buffer, u64)>,
}

impl BufferAllocator {
    /// Creates an allocator sized from `chip`'s buffer capacities.
    #[must_use]
    pub fn new(chip: &ChipSpec) -> Self {
        let capacities: Vec<(Buffer, u64)> =
            Buffer::ALL.into_iter().map(|b| (b, chip.capacity(b).unwrap_or(0))).collect();
        let cursors = Buffer::ALL.into_iter().map(|b| (b, 0)).collect();
        BufferAllocator { capacities, cursors }
    }

    fn cursor_mut(&mut self, buffer: Buffer) -> &mut u64 {
        // Construction seeds a cursor for every `Buffer::ALL` entry; a
        // miss can only mean a Buffer variant newer than this allocator,
        // which starts empty instead of panicking.
        let index = match self.cursors.iter().position(|(b, _)| *b == buffer) {
            Some(index) => index,
            None => {
                self.cursors.push((buffer, 0));
                self.cursors.len() - 1
            }
        };
        &mut self.cursors[index].1
    }

    /// Capacity of `buffer` in bytes (zero for a buffer the chip does
    /// not describe).
    #[must_use]
    pub fn capacity(&self, buffer: Buffer) -> u64 {
        self.capacities.iter().find(|(b, _)| *b == buffer).map_or(0, |(_, capacity)| *capacity)
    }

    /// Bytes already allocated in `buffer`.
    #[must_use]
    pub fn used(&self, buffer: Buffer) -> u64 {
        self.cursors.iter().find(|(b, _)| *b == buffer).map_or(0, |(_, used)| *used)
    }

    /// Bytes still available in `buffer`.
    #[must_use]
    pub fn remaining(&self, buffer: Buffer) -> u64 {
        self.capacity(buffer) - self.used(buffer)
    }

    /// Allocates `len` bytes in `buffer`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OutOfBufferSpace`] when the buffer cannot hold
    /// `len` more bytes.
    pub fn alloc(&mut self, buffer: Buffer, len: u64) -> Result<Region, IsaError> {
        let capacity = self.capacity(buffer);
        let cursor = self.cursor_mut(buffer);
        if capacity.saturating_sub(*cursor) < len {
            return Err(IsaError::OutOfBufferSpace {
                buffer,
                requested: len,
                available: capacity - *cursor,
            });
        }
        let region = Region::new(buffer, *cursor, len);
        *cursor += len;
        Ok(region)
    }

    /// Splits `len * 2` bytes of `buffer` into a ping/pong region pair for
    /// double buffering (the paper's Ping-pong Policy).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OutOfBufferSpace`] when `2 * len` bytes are not
    /// available.
    pub fn alloc_ping_pong(&mut self, buffer: Buffer, len: u64) -> Result<[Region; 2], IsaError> {
        let ping = self.alloc(buffer, len)?;
        let pong = self.alloc(buffer, len)?;
        Ok([ping, pong])
    }

    /// Current allocation mark of `buffer` (for stack-style reuse).
    #[must_use]
    pub fn mark(&self, buffer: Buffer) -> u64 {
        self.used(buffer)
    }

    /// Releases all allocations of `buffer` made after `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is beyond the current cursor.
    pub fn release_to(&mut self, buffer: Buffer, mark: u64) {
        let cursor = self.cursor_mut(buffer);
        assert!(mark <= *cursor, "cannot release forward");
        *cursor = mark;
    }

    /// Resets one buffer to empty.
    pub fn reset(&mut self, buffer: Buffer) {
        *self.cursor_mut(buffer) = 0;
    }

    /// Resets every buffer to empty.
    pub fn reset_all(&mut self) {
        for (_, cursor) in &mut self.cursors {
            *cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_symmetric_and_reflexive_for_nonempty() {
        let a = Region::new(Buffer::Ub, 0, 8);
        let b = Region::new(Buffer::Ub, 4, 8);
        assert!(a.overlaps(&a));
        assert!(a.overlaps(&b) && b.overlaps(&a));
    }

    #[test]
    fn different_buffers_never_overlap() {
        let a = Region::new(Buffer::Ub, 0, 1024);
        let b = Region::new(Buffer::L1, 0, 1024);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn empty_regions_never_overlap() {
        let a = Region::new(Buffer::Ub, 0, 0);
        let b = Region::new(Buffer::Ub, 0, 8);
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
    }

    #[test]
    fn adjacent_regions_do_not_overlap() {
        let a = Region::new(Buffer::Ub, 0, 8);
        let b = Region::new(Buffer::Ub, 8, 8);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn slice_stays_inside() {
        let a = Region::new(Buffer::L1, 100, 50);
        let s = a.slice(10, 20);
        assert_eq!(s.offset(), 110);
        assert_eq!(s.len(), 20);
        assert!(a.overlaps(&s));
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn slice_out_of_bounds_panics() {
        let _ = Region::new(Buffer::L1, 0, 10).slice(5, 10);
    }

    #[test]
    fn allocator_respects_capacity() {
        let chip = ChipSpec::training();
        let mut alloc = BufferAllocator::new(&chip);
        let cap = alloc.capacity(Buffer::L0A);
        assert!(alloc.alloc(Buffer::L0A, cap).is_ok());
        let err = alloc.alloc(Buffer::L0A, 1).unwrap_err();
        assert!(matches!(err, IsaError::OutOfBufferSpace { buffer: Buffer::L0A, .. }));
    }

    #[test]
    fn allocations_are_disjoint() {
        let chip = ChipSpec::training();
        let mut alloc = BufferAllocator::new(&chip);
        let regions: Vec<Region> =
            (0..8).map(|_| alloc.alloc(Buffer::Ub, 1 << 10).unwrap()).collect();
        for (i, a) in regions.iter().enumerate() {
            for b in &regions[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn ping_pong_halves_are_disjoint() {
        let chip = ChipSpec::training();
        let mut alloc = BufferAllocator::new(&chip);
        let [ping, pong] = alloc.alloc_ping_pong(Buffer::L1, 4096).unwrap();
        assert!(!ping.overlaps(&pong));
        assert_eq!(ping.len(), pong.len());
    }

    #[test]
    fn mark_and_release_reuse_space() {
        let chip = ChipSpec::training();
        let mut alloc = BufferAllocator::new(&chip);
        let _persistent = alloc.alloc(Buffer::Ub, 1024).unwrap();
        let mark = alloc.mark(Buffer::Ub);
        let tmp1 = alloc.alloc(Buffer::Ub, 2048).unwrap();
        alloc.release_to(Buffer::Ub, mark);
        let tmp2 = alloc.alloc(Buffer::Ub, 2048).unwrap();
        assert_eq!(tmp1, tmp2, "released space is handed out again");
    }
}
