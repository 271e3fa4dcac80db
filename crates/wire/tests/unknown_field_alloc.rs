//! An unknown field costs the decoder no allocation: a submission
//! carrying a large field it does not know decodes with no more heap
//! allocations than the same submission without it, because the reader
//! checks the field's syntax and skips it without building anything.
//! The field here has the shape of the event-loop stall probe in
//! `docs/ARCHITECTURE.md`: an array of two-character strings. This
//! binary counts the calling thread's heap allocations with a counting
//! global allocator, so it lives in a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qrm_server::SubmitBatch;
use qrm_wire::{FromJson, JsonLimits};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls per thread.
struct Counting;

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Decodes `text` under the HTTP server's limits for a batch body
/// (1 MiB, depth 32) and counts the allocations the decode made.
fn decode_counting(text: &str) -> (SubmitBatch, usize) {
    let limits = JsonLimits {
        max_bytes: 1 << 20,
        max_depth: 32,
    };
    let before = ALLOCATIONS.with(Cell::get);
    let decoded = SubmitBatch::from_json_with_limits(text, &limits);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (decoded.expect("a valid submission"), allocations)
}

#[test]
fn a_64_kib_unknown_field_costs_no_allocation() {
    let spec = "\"spec\":{\"shots\":2,\"size\":16,\"fill\":0.55,\"seed\":1}";
    let mut field = "\"x\":[\"ab\"".to_string();
    while field.len() < 64 << 10 {
        field.push_str(",\"ab\"");
    }
    field.push(']');

    let (plain, baseline) = decode_counting(&format!("{{\"planner\":\"qrm\",{spec}}}"));
    for text in [
        format!("{{\"planner\":\"qrm\",{spec},{field}}}"),
        format!("{{{field},\"planner\":\"qrm\",{spec}}}"),
    ] {
        assert!(text.len() > 64 << 10);
        let (decoded, allocations) = decode_counting(&text);
        assert_eq!(decoded, plain);
        assert!(
            allocations <= baseline,
            "the unknown field cost {allocations} allocations against {baseline} without it"
        );
    }
}
