//! Allocation budget of kernel builds.
//!
//! Building an operator's kernel is on every cache miss, so its heap
//! traffic is part of the miss cost. Compute instructions keep their
//! operand regions inline (`ascend_isa::Regions`), which leaves a build
//! with a handful of allocations: the kernel name, the instruction vector
//! as it grows, and the builder's own bookkeeping. This suite pins that:
//! every kernel of the optimizer campaign (the training zoo crossed with
//! the Section 5 flag subsets) builds within [`BUILD_ALLOCATION_BUDGET`]
//! allocations, and a presized builder's count does not grow with the
//! number of tiles at all.
//!
//! A counting global allocator tallies allocations and reallocations per
//! thread, so the test harness's other threads never leak into a count.

use ascend::arch::ChipSpec;
use ascend::models::zoo;
use ascend::ops::{AddRelu, Operator, OptFlags};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most allocations (including reallocations) one campaign kernel build
/// may make. Builds made ~390 when each compute instruction owned two
/// heap-held region lists.
const BUILD_ALLOCATION_BUDGET: u64 = 40;

/// The flag subsets the optimizer campaign crosses every operator with.
const CAMPAIGN_SUBSETS: [fn(OptFlags) -> OptFlags; 6] = [
    |f| f,
    |f| f.rsd(true).mrt(true),
    |f| f.ais(true).rus(true),
    |f| f.pp(true),
    |f| f.itg(true).ais(true),
    |f| f.aip(true).rus(true),
];

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown is not counted
    // rather than aborting.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made on this thread while building `op`'s kernel, and the
/// kernel's instruction count. The kernel is dropped outside the count.
fn build_allocations(op: &dyn Operator, chip: &ChipSpec) -> (u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let kernel = op.build(chip).unwrap_or_else(|e| panic!("{} must build: {e}", op.name()));
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, kernel.len())
}

#[test]
fn every_campaign_kernel_builds_within_the_allocation_budget() {
    let chip = ChipSpec::training();
    let mut worst = (0, String::new(), 0);
    for model in zoo::all_training() {
        for (i, invocation) in model.ops().iter().enumerate() {
            let op = invocation.operator();
            for (s, subset) in CAMPAIGN_SUBSETS.iter().enumerate() {
                let op = op.with_flags_dyn(subset(op.flags()));
                let (allocations, len) = build_allocations(op.as_ref(), &chip);
                if allocations > worst.0 {
                    worst = (allocations, format!("{}/{i}/{s}", model.name()), len);
                }
            }
        }
    }
    let (allocations, name, len) = worst;
    assert!(
        allocations <= BUILD_ALLOCATION_BUDGET,
        "{name} ({len} instructions) took {allocations} allocations to build, \
         over the budget of {BUILD_ALLOCATION_BUDGET}"
    );
}

#[test]
fn add_relu_build_allocations_do_not_grow_with_its_tile_count() {
    let chip = ChipSpec::training();
    for flags in [OptFlags::new(), OptFlags::new().rsd(true).mrt(true)] {
        let counts: Vec<(u64, usize)> = [1u64 << 14, 1 << 17, 1 << 20]
            .into_iter()
            .map(|elements| build_allocations(&AddRelu::new(elements).with_flags(flags), &chip))
            .collect();
        assert!(counts[0].1 < counts[2].1, "the sizes must differ in tile count: {counts:?}");
        assert!(
            counts.iter().all(|&(allocations, _)| allocations == counts[0].0),
            "allocations per build grew with the tile count ({flags:?}): \
             (allocations, instructions) = {counts:?}"
        );
    }
}
