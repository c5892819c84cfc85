//! The benchmark binary's global allocator: the system allocator, plus a
//! count of the bytes live at once, and the setting it runs with.
//!
//! Peak resident memory swings by up to a tenth between seeds, with how
//! the allocator reuses freed pages; the peak of live heap bytes is what
//! the program asked for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts live and peak heap bytes around [`System`].
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`)
        // returned, with its layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with a `new_size` the caller checked.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Tells glibc's allocator to keep the memory the program frees.
///
/// By default it hands blocks of 128 KiB and more, and the top of the heap,
/// back to the kernel on free, so every closed-loop session faulted some
/// 60 MB in again: a fifth of the run went to page faults, whose cost on
/// the VM swings with the host's load. Kept memory is reused instead.
/// Blocks of up to 32 MiB, glibc's largest threshold, now come from the
/// heap. Must run before any other thread starts.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, i32::MAX)] {
            // SAFETY: `mallopt` only sets an allocator parameter and takes
            // plain integers; no other thread is allocating yet.
            if unsafe { mallopt(param, value) } != 1 {
                eprintln!("warning: mallopt({param}, {value}) failed; freed memory is returned");
            }
        }
    }
}

/// The most heap bytes live at once so far, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_allocation_raises_the_peak_for_good() {
        let before = peak_mb();
        let block = vec![1u8; 64 << 20];
        let during = peak_mb();
        drop(block);
        assert!(during >= before.max(64.0), "{before} -> {during}");
        assert!(peak_mb() >= during);
    }
}
