//! What the container path allocates. `bytes::stats` counts backing
//! allocations process-wide and the allocator below watches this
//! thread's largest request, so this binary holds exactly one `#[test]`:
//! nothing else may run beside it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::stats::{backing_allocations, bytes_deep_copied};
use common::{arb_file, make_file};
use lod_asf::{
    read_asf, write_asf, AsfError, DataPacket, License, MediaSample, Payload, Reassembler,
    ScriptCommandList,
};
use proptest::prelude::*;

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside
    // the allocator, at any point of a thread's life.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, remembering each thread's largest request.
struct Watching;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the note taken is a side
// effect that touches no allocation.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.set(LARGEST.get().max(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.set(LARGEST.get().max(new_size));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// A count field is a claim, not a size: a short file saying it holds
/// 2³² packets (or index entries) is refused at the first missing byte
/// having reserved nothing beyond its own length.
fn hostile_counts_reserve_nothing() {
    let mut f = make_file(&[], ScriptCommandList::new(), 128);
    f.index = Some(Default::default());
    let image = write_asf(&f).unwrap();
    let header_len = u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
    for at in [header_len + 24, image.len() - 4] {
        let mut hostile = image.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        LARGEST.set(0);
        let got = read_asf(&hostile);
        let largest = LARGEST.get();
        assert!(
            matches!(got, Err(AsfError::UnexpectedEof { .. })),
            "{got:?}"
        );
        assert!(
            largest <= hostile.len(),
            "a {}-byte file made read_asf ask for {largest} bytes at once",
            hostile.len()
        );
    }
}

/// Fragments the packetizer would never write: two split samples whose
/// halves interleave, so no sample's fragments are adjacent in the read
/// image. Each still reassembles, through one copy of its own that
/// `bytes::stats` sees: a backing each and all 20 bytes deep-copied.
fn interleaved_fragments_take_the_copy() {
    let a: Vec<u8> = (0..10).collect();
    let b: Vec<u8> = (100..110).collect();
    let half = |stream: u16, data: &[u8], offset: usize| Payload {
        stream,
        object_id: 0,
        offset: offset as u32,
        total: data.len() as u32,
        pres_time: u64::from(stream),
        data: data[offset..offset + 5].to_vec().into(),
    };
    let mut f = make_file(&[], ScriptCommandList::new(), 128);
    for offset in [0, 5] {
        f.packets.push(DataPacket {
            send_time: 0,
            payloads: vec![half(1, &a, offset), half(2, &b, offset)].into(),
        });
    }
    let back = read_asf(&write_asf(&f).unwrap()).unwrap();
    let image = back.packets[0].payloads[0].data.backing_id();
    let (before, copied_before) = (backing_allocations(), bytes_deep_copied());
    let mut rs = Reassembler::new();
    for p in &back.packets {
        rs.push_packet(p).unwrap();
    }
    let got = rs.take_completed();
    assert_eq!(backing_allocations() - before, 2);
    assert_eq!(bytes_deep_copied() - copied_before, 20);
    assert_eq!(got, [MediaSample::new(1, 1, a), MediaSample::new(2, 2, b)]);
    for s in &got {
        assert_ne!(s.data.backing_id(), image);
        assert_eq!(s.data.backing_len(), s.data.len());
    }
}

proptest! {
    /// One backing allocation per file read, and one per protect or
    /// unprotect pass, whatever the payload count: every payload of the
    /// result views that one buffer, which holds the payload bytes and
    /// nothing else, in an allocation the size of the data object's
    /// packets.
    fn one_backing_per_pass(f in arb_file(), key in any::<u64>()) {
        let bytes = write_asf(&f).unwrap();
        let before = backing_allocations();
        let back = read_asf(&bytes).unwrap();
        prop_assert_eq!(backing_allocations() - before, 1);
        prop_assert_eq!(&back, &f);
        let payload_bytes: usize = back.packets.iter().map(DataPacket::media_bytes).sum();
        let mut views = back.packets.iter().flat_map(|p| p.payloads.iter());
        if let Some(first) = views.next() {
            prop_assert_eq!(first.data.backing_len(), payload_bytes);
            let packets = back.packets.len() * back.props.packet_size as usize;
            prop_assert_eq!(first.data.backing_capacity(), packets);
            prop_assert!(views.all(|p| p.data.backing_id() == first.data.backing_id()));
        }

        let mut plain = f;
        plain.drm = None;
        let license = License::new("course", key);
        let mut g = plain.clone();
        let before = backing_allocations();
        g.protect(&license);
        prop_assert_eq!(backing_allocations() - before, 1);
        let mut views = g.packets.iter().flat_map(|p| p.payloads.iter());
        if let Some(first) = views.next() {
            prop_assert!(views.all(|p| p.data.backing_id() == first.data.backing_id()));
        }
        let before = backing_allocations();
        g.unprotect(&license).unwrap();
        prop_assert_eq!(backing_allocations() - before, 1);
        prop_assert_eq!(g, plain);
    }
}

proptest! {
    /// A file the packetizer wrote reassembles, once read, for free: the
    /// fragments of each split sample are adjacent in the read image, so
    /// every sample is one view of it and reassembly makes no backing.
    fn read_then_reassemble_makes_no_backing(f in arb_file()) {
        let back = read_asf(&write_asf(&f).unwrap()).unwrap();
        let payloads = || back.packets.iter().flat_map(|p| p.payloads.iter());
        let image = payloads().map(|p| p.data.backing_id()).next();
        let before = backing_allocations();
        let mut rs = Reassembler::new();
        for p in &back.packets {
            rs.push_packet(p).unwrap();
        }
        let got = rs.take_completed();
        prop_assert_eq!(backing_allocations() - before, 0);
        prop_assert_eq!(rs.incomplete(), 0);
        prop_assert_eq!(got.len(), payloads().filter(|p| p.offset == 0).count());
        for s in &got {
            prop_assert_eq!(Some(s.data.backing_id()), image);
        }
    }
}

#[test]
fn container_allocations() {
    hostile_counts_reserve_nothing();
    one_backing_per_pass();
    read_then_reassemble_makes_no_backing();
    interleaved_fragments_take_the_copy();
}
