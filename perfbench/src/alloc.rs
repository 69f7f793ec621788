//! A tagging global allocator for the traced run.
//!
//! The binary installs [`TaggingAlloc`] as its global allocator. Whether
//! it tags is fixed for the whole process by the `PERFBENCH_ALLOC_TAGS`
//! environment variable, read on the first allocation: unset, every call
//! goes straight to the system allocator (the untraced end-to-end runs);
//! set to `1`, every block carries a small header naming the layer group
//! that allocated it, so a free is charged back to that group no matter
//! which layer frees it.
//!
//! Groups: [`CORE`] (the simulator core, the scenario builders and the
//! harness) and [`AGENTS`] (everything allocated inside an agent callback;
//! the wrapper agents switch the thread's group with [`enter`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering::Relaxed};

/// Group of the simulator core, builders and harness.
pub const CORE: u8 = 0;
/// Group of the transport/application agents.
pub const AGENTS: u8 = 1;
const GROUPS: usize = 2;

const MODE_UNKNOWN: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_ON: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNKNOWN);
static LIVE: [AtomicI64; GROUPS] = [AtomicI64::new(0), AtomicI64::new(0)];
static PEAK: [AtomicI64; GROUPS] = [AtomicI64::new(0), AtomicI64::new(0)];
static TOTAL_LIVE: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static GROUP: Cell<u8> = const { Cell::new(CORE) };
}

/// The global allocator; see the module docs.
pub struct TaggingAlloc;

/// Header bytes in front of each tagged block: at least 16, and a
/// multiple of the block's alignment so the user pointer stays aligned.
#[inline]
fn header(layout: &Layout) -> usize {
    layout.align().max(16)
}

#[inline]
fn tagging() -> bool {
    match MODE.load(Relaxed) {
        MODE_ON => true,
        MODE_OFF => false,
        _ => {
            extern "C" {
                fn getenv(name: *const std::ffi::c_char) -> *const std::ffi::c_char;
            }
            // SAFETY: the argument is a NUL-terminated static string, and
            // getenv only reads the environment; it does not allocate, so
            // calling it from inside the allocator cannot recurse.
            let v = unsafe { getenv(c"PERFBENCH_ALLOC_TAGS".as_ptr()) };
            // SAFETY: a non-null getenv result points at a NUL-terminated
            // string; only its first byte is read.
            let on = !v.is_null() && unsafe { *v } == b'1' as std::ffi::c_char;
            MODE.store(if on { MODE_ON } else { MODE_OFF }, Relaxed);
            on
        }
    }
}

#[inline]
fn charge(group: u8, bytes: i64) {
    let g = group as usize;
    let live = LIVE[g].fetch_add(bytes, Relaxed) + bytes;
    PEAK[g].fetch_max(live, Relaxed);
    TOTAL_LIVE.fetch_add(bytes, Relaxed);
}

#[inline]
fn current_group() -> u8 {
    GROUP.with(Cell::get)
}

// SAFETY: every block is obtained from `System` with a layout that
// `header` enlarges consistently on alloc, dealloc and realloc, and the
// pointer handed out is `header` bytes into the block, which keeps the
// caller's alignment because `header` is a multiple of it. Untagged mode
// forwards every call unchanged, and the mode never changes after the
// first allocation.
unsafe impl GlobalAlloc for TaggingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !tagging() {
            // SAFETY: forwarded with the caller's own layout.
            return unsafe { System.alloc(layout) };
        }
        let h = header(&layout);
        let Ok(outer) = Layout::from_size_align(layout.size() + h, layout.align()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `outer` has non-zero size (it includes the header).
        let base = unsafe { System.alloc(outer) };
        if base.is_null() {
            return base;
        }
        let group = current_group();
        // SAFETY: `base` points at `size + h` bytes, so `base + h - 1`
        // (the tag byte) and `base + h` (the user block) are in bounds.
        unsafe { base.add(h - 1).write(group) };
        ALLOCS.fetch_add(1, Relaxed);
        charge(group, layout.size() as i64);
        // SAFETY: in bounds, see above.
        unsafe { base.add(h) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !tagging() {
            // SAFETY: the block came from `System` with this layout.
            return unsafe { System.dealloc(ptr, layout) };
        }
        let h = header(&layout);
        // SAFETY: tagged blocks start `h` bytes before `ptr`, with the
        // tag byte just in front of `ptr`.
        let base = unsafe { ptr.sub(h) };
        // SAFETY: as above.
        let group = unsafe { base.add(h - 1).read() };
        charge(group, -(layout.size() as i64));
        // SAFETY: `base` was allocated with exactly this outer layout.
        unsafe {
            System.dealloc(
                base,
                Layout::from_size_align_unchecked(layout.size() + h, layout.align()),
            )
        };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !tagging() {
            // SAFETY: forwarded unchanged.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        let h = header(&layout);
        // SAFETY: see `dealloc`.
        let base = unsafe { ptr.sub(h) };
        // SAFETY: see `dealloc`.
        let old_group = unsafe { base.add(h - 1).read() };
        // SAFETY: `base` was allocated with this outer layout; the header
        // moves with the block because it is at its start.
        let new_base = unsafe {
            System.realloc(
                base,
                Layout::from_size_align_unchecked(layout.size() + h, layout.align()),
                new_size + h,
            )
        };
        if new_base.is_null() {
            return new_base;
        }
        let group = current_group();
        // SAFETY: the new block holds `new_size + h` bytes.
        unsafe { new_base.add(h - 1).write(group) };
        ALLOCS.fetch_add(1, Relaxed);
        charge(old_group, -(layout.size() as i64));
        charge(group, new_size as i64);
        // SAFETY: in bounds, see above.
        unsafe { new_base.add(h) }
    }
}

/// Whether this process tags allocations.
pub fn enabled() -> bool {
    tagging()
}

/// Charges this thread's allocations to `group` until the guard drops.
#[inline]
pub fn enter(group: u8) -> GroupGuard {
    GroupGuard(GROUP.with(|g| g.replace(group)))
}

/// Restores the previous group on drop (see [`enter`]).
pub struct GroupGuard(u8);

impl Drop for GroupGuard {
    #[inline]
    fn drop(&mut self) {
        GROUP.with(|g| g.set(self.0));
    }
}

/// Allocator counters at one instant. All zero in untagged processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Live bytes per group.
    pub live: [i64; GROUPS],
    /// Highest live bytes per group since the last [`reset_peaks`].
    pub peak: [i64; GROUPS],
    /// Live bytes over all groups.
    pub total_live: i64,
    /// Allocation calls (realloc counts as one) since process start.
    pub allocs: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        live: [LIVE[0].load(Relaxed), LIVE[1].load(Relaxed)],
        peak: [PEAK[0].load(Relaxed), PEAK[1].load(Relaxed)],
        total_live: TOTAL_LIVE.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
    }
}

/// Lowers every peak to the current live value, so later peaks cover
/// only what follows.
pub fn reset_peaks() {
    for g in 0..GROUPS {
        PEAK[g].store(LIVE[g].load(Relaxed), Relaxed);
    }
}
