//! The per-step layout shim allocates nothing once warm.
//!
//! The non-fused backends convert a SoA simulation to AoS and back
//! around every step. `OpDat::set_layout` does that in place through a
//! per-thread scratch, so after one warm-up round trip has sized the
//! scratch, an `Aos` → `Soa` pair over every dat of either app must not
//! touch the heap. A counting global allocator (std only) checks it.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use ump_apps::{airfoil::Airfoil, volna::Volna};
use ump_core::Layout;

/// `System`, counting the allocations made by each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialised thread-local that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_layout_round_trip_allocates_nothing() {
    let mut volna = Volna::<f32>::new(24, 16);
    volna.set_layout(Layout::Soa);
    volna.set_layout(Layout::Aos);
    volna.set_layout(Layout::Soa);
    let n = allocs_in(|| {
        volna.set_layout(Layout::Aos);
        volna.set_layout(Layout::Soa);
    });
    assert_eq!(n, 0, "Volna<f32> Aos -> Soa round trip allocated {n} times");

    let mut airfoil = Airfoil::<f64>::new(24, 12);
    airfoil.set_layout(Layout::Soa);
    airfoil.set_layout(Layout::Aos);
    airfoil.set_layout(Layout::Soa);
    let n = allocs_in(|| {
        airfoil.set_layout(Layout::Aos);
        airfoil.set_layout(Layout::Soa);
    });
    assert_eq!(
        n, 0,
        "Airfoil<f64> Aos -> Soa round trip allocated {n} times"
    );
}
