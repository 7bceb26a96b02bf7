//! Fan-out by reference: every subscriber of an engine group sees the
//! *same* allocation for an epoch's delta, a delta held across later
//! epochs never changes, and the bytes one `apply_batch` allocates do
//! not grow with the number of subscribers by more than a small
//! constant each — delivery is a handle, never a copy of the tuples.
//!
//! The allocation gate needs a counting `#[global_allocator]`, which is
//! why these tests are a binary of their own. The counter is per thread,
//! so the harness's parallel test threads do not disturb each other.

mod common;

use common::outputs_match;
use ivm_data::{sym, tup, Relation, Sym, Update};
use ivm_query::{Atom, Query};
use ivm_serve::{ServeNode, Subscription, ViewDelta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

thread_local! {
    /// Bytes this thread has requested from the allocator so far.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread's last frees can run after its locals are gone.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The triangle listing `Q(a,b,c) = E(a,b)·E(b,c)·E(c,a)` over `{prefix}E`.
fn listing(prefix: &str) -> (Sym, Query) {
    let [a, b, c] = ivm_data::vars([
        format!("{prefix}A").as_str(),
        format!("{prefix}B").as_str(),
        format!("{prefix}C").as_str(),
    ]);
    let e = sym(&format!("{prefix}E"));
    let q = Query::new(
        format!("{prefix}listing").as_str(),
        [a, b, c],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    );
    (e, q)
}

/// `fan` open wedges `1 → c → 0`: the one edge `0 → 1` closes all of
/// them, so inserting or retracting it moves `3 · fan` listing tuples.
fn wedges(e: Sym, fan: i64) -> Vec<Update<i64>> {
    (2..2 + fan)
        .flat_map(|c| {
            [
                Update::insert(e, tup![1i64, c]),
                Update::insert(e, tup![c, 0i64]),
            ]
        })
        .collect()
}

/// Two channel subscribers and one callback on the same group hold the
/// same allocation for an epoch's delta, and a `ViewDelta` kept across
/// later epochs still reads what it read on receipt.
#[test]
fn one_group_one_delta_allocation_shared_by_every_tap() {
    let (e, q) = listing("szs_");
    let mut node = ServeNode::<i64>::new();
    let mut first = node.subscribe(q.clone()).unwrap();
    let mut second = node.subscribe_bounded(q.clone(), 8).unwrap();
    let heard: Rc<RefCell<Vec<ViewDelta<i64>>>> = Rc::default();
    let sink = Rc::clone(&heard);
    node.subscribe_with(q, move |vd| sink.borrow_mut().push(vd.clone()))
        .unwrap();
    assert_eq!(node.group_count(), 1);

    node.apply_batch(&wedges(e, 40)).unwrap();
    node.apply_batch(&[Update::insert(e, tup![0i64, 1i64])])
        .unwrap();
    let mut held = Vec::new();
    for epoch in 0..2u64 {
        let a = first.try_next().expect("one delivery per epoch");
        let b = second.try_next().expect("one delivery per epoch");
        let c = heard.borrow()[epoch as usize].clone();
        assert_eq!((a.epoch, b.epoch, c.epoch), (epoch, epoch, epoch));
        let at = |vd: &ViewDelta<i64>| std::ptr::from_ref::<Relation<i64>>(&vd.delta);
        assert!(
            at(&a) == at(&b) && at(&a) == at(&c),
            "epoch {epoch}: taps of one group must share one delta allocation"
        );
        held.push((a, Relation::clone(&b.delta)));
    }
    assert_eq!(held[1].0.delta.len(), 120, "the closing edge lists 40 x 3");

    // Later epochs — the retraction of everything the held delta added
    // included — leave a delta already handed out as it was.
    node.apply_batch(&[Update::delete(e, tup![0i64, 1i64])])
        .unwrap();
    node.apply_batch(&wedges(e, 3)).unwrap();
    for (vd, on_receipt) in &held {
        outputs_match(&vd.delta, on_receipt, "a held delta").unwrap();
        assert_eq!(vd.changes().len(), on_receipt.len());
    }
}

/// Bytes allocated inside the one `apply_batch` that retracts a
/// 300-tuple listing delta, with `subscribers` channel subscribers (half
/// unbounded, half bounded) on the group.
fn fanout_bytes(prefix: &str, subscribers: usize) -> u64 {
    let (e, q) = listing(prefix);
    let mut node = ServeNode::<i64>::new();
    let mut subs: Vec<Subscription<i64>> = (0..subscribers)
        .map(|i| match i % 2 {
            0 => node.subscribe(q.clone()).unwrap(),
            _ => node.subscribe_bounded(q.clone(), 4).unwrap(),
        })
        .collect();
    let mut drain = |expect: usize| {
        for sub in &mut subs {
            let vd = sub.try_next().expect("one delivery per epoch");
            assert_eq!(vd.delta.len(), expect);
            assert!(sub.try_next().is_none());
        }
    };
    // Warm-up: the queues' first blocks and the engine's tables exist
    // before the measured epoch.
    node.apply_batch(&wedges(e, 100)).unwrap();
    drain(0);
    node.apply_batch(&[Update::insert(e, tup![0i64, 1i64])])
        .unwrap();
    drain(300);

    let batch = [Update::delete(e, tup![0i64, 1i64])];
    let before = ALLOCATED.get();
    node.apply_batch(&batch).unwrap();
    let bytes = ALLOCATED.get() - before;
    drain(300);
    bytes
}

/// The allocation gate: 255 more subscribers cost at most a few bytes
/// each in the epoch that fans a 300-tuple delta out to them — nowhere
/// near the ≥ 10 KB a private copy of that delta takes.
#[test]
fn fanout_allocation_is_constant_per_subscriber() {
    const PER_SUBSCRIBER: u64 = 64;
    let one = fanout_bytes("sza_", 1);
    let many = fanout_bytes("szb_", 256);
    assert!(one > 0, "the engine's delta itself is allocated");
    assert!(
        many <= one + 255 * PER_SUBSCRIBER,
        "one epoch allocated {one} B with 1 subscriber and {many} B with 256: \
         {} B per extra subscriber, over the {PER_SUBSCRIBER} B allowance",
        (many - one) / 255
    );
}
