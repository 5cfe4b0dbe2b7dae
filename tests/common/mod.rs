//! A counting `#[global_allocator]` for the test binaries that count
//! heap bytes instead of timing. Each such test has its own process, and
//! is the only test in it, because the allocator sees every thread.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes allocated since the process started; a `realloc` counts as its
/// growth, and nothing freed is subtracted.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not freed yet.
static LIVE: AtomicU64 = AtomicU64::new(0);

pub fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

fn grew(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(growth) => grew(growth),
            None => {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
            }
        }
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
