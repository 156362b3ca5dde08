//! Validation of text kernels whose flag ids are sparse: the text format
//! accepts any `u32` id, and neither the verdict nor the memory
//! validation takes may depend on how large those ids are.

use ascend_arch::ChipSpec;
use ascend_isa::{parse_kernel, validate, IsaError, Kernel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down, when
    // nothing is measured any more.
    let _ = REQUESTED.try_with(|requested| requested.set(requested.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// whose access neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Validates `kernel` and returns the verdict with the bytes the
/// validation asked the allocator for on this thread.
fn validate_counting(kernel: &Kernel) -> (Result<(), IsaError>, usize) {
    let chip = ChipSpec::training();
    let before = REQUESTED.with(Cell::get);
    let verdict = validate(kernel, &chip);
    (verdict, REQUESTED.with(Cell::get) - before)
}

/// Far below what a table indexed by any of these ids would need, and
/// far above what a three-instruction kernel needs.
const SMALL_KERNEL_BYTES: usize = 64 * 1024;

#[test]
fn largest_flag_id_pairs_and_validates() {
    let kernel =
        parse_kernel("kernel sparse {\n  set f4294967295 @mte-gm\n  wait f4294967295 @vector\n}")
            .expect("parses");
    let (verdict, bytes) = validate_counting(&kernel);
    assert_eq!(verdict, Ok(()));
    assert!(bytes < SMALL_KERNEL_BYTES, "validation asked for {bytes} bytes");
}

#[test]
fn lone_wait_on_a_large_id_is_reported_under_that_id() {
    let kernel = parse_kernel(
        "kernel sparse {\n  set f7 @mte-gm\n  wait f7 @vector\n  wait f4000000000 @cube\n}",
    )
    .expect("parses");
    let (verdict, bytes) = validate_counting(&kernel);
    assert_eq!(verdict, Err(IsaError::UnmatchedWait { flag: 4_000_000_000, sets: 0, waits: 1 }));
    assert!(bytes < SMALL_KERNEL_BYTES, "validation asked for {bytes} bytes");
}

#[test]
fn sparse_ids_take_the_same_graph_checks_as_dense_ones() {
    // A wait before its set forces the graph; the ids map onto slots in
    // ascending order, so the lower of the two unordered flags is named.
    let text = "kernel sparse {
  set f3000000000 @mte-ub
  set f3000000000 @scalar
  wait f3000000000 @mte-l1
  set f3000000000 @mte-l1
  wait f3000000000 @cube
  wait f3000000000 @vector
  set f2000000000 @mte-ub
  set f2000000000 @scalar
  wait f2000000000 @mte-l1
  set f2000000000 @mte-l1
  wait f2000000000 @cube
  wait f2000000000 @vector
}";
    let kernel = parse_kernel(text).expect("parses");
    let (verdict, bytes) = validate_counting(&kernel);
    assert_eq!(
        verdict,
        Err(IsaError::UnorderedWaits { flag: 2_000_000_000, first: 8, second: 10 })
    );
    assert!(bytes < SMALL_KERNEL_BYTES, "validation asked for {bytes} bytes");
}
