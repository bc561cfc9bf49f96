//! The coordinator's memory stays flat under a long stream of jobs.
//!
//! A coordinator keeps two per-job structures: the live-job table (each
//! entry holds the shard merge, with every shard's checkpoint and
//! certificate text) and the store of terminal responses that answers
//! `query`. The first must forget a job once it is delivered; the
//! second is bounded, like the daemon's. This suite streams jobs
//! through a one-node coordinator past the result store's capacity and
//! checks, with a process-wide live-heap counter, that a further stream
//! of the same size leaves the heap where it was.
//!
//! The binary holds a single test, so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use domains::Bounds;
use server::journal::RESULT_RETENTION;
use server::{
    Client, Coordinator, CoordinatorConfig, Server, ServerAddr, ServerConfig, VerifyRequest,
};

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct LiveBytes;

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Sends `count` certified jobs with fresh ids, one at a time on one
/// connection, and checks each is verified.
fn stream_jobs(client: &mut Client, template: &VerifyRequest, ids: std::ops::Range<u64>) {
    for id in ids {
        let request = VerifyRequest {
            id,
            ..template.clone()
        };
        let reply = client.request(&request.to_line()).unwrap();
        assert_eq!(reply.str_field("verdict").unwrap(), "verified", "{reply:?}");
    }
}

#[test]
fn delivered_jobs_leave_no_state_behind() {
    let dir = std::env::temp_dir().join(format!("charon-coord-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("xor.net");
    nn::serialize::save(&nn::samples::xor_network(), &net).unwrap();
    let node = Server::start(ServerConfig {
        addr: ServerAddr::Unix(dir.join("node.sock")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let coordinator = Coordinator::start(CoordinatorConfig {
        addr: ServerAddr::Unix(dir.join("coord.sock")),
        nodes: vec![node.addr().clone()],
        shards: 2,
        connections_per_node: 1,
        ..CoordinatorConfig::default()
    })
    .unwrap();
    // Certified jobs: every shard sends back certificate text, which is
    // what a leaked job entry would keep alive.
    let template = VerifyRequest {
        network: net.to_str().unwrap().to_string(),
        property: charon::RobustnessProperty::new(
            Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]),
            1,
        )
        .to_text(),
        cert: true,
        ..VerifyRequest::default()
    };
    let mut client = Client::connect(coordinator.addr()).unwrap();
    let batch = RESULT_RETENTION as u64;

    // Warm-up: fill the result store to capacity.
    stream_jobs(&mut client, &template, 0..batch);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    stream_jobs(&mut client, &template, batch..2 * batch);
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - before;

    let stats = client.request("{\"request\": \"stats\"}").unwrap();
    assert_eq!(
        stats.usize_field("results_entries").unwrap(),
        RESULT_RETENTION,
        "{stats:?}"
    );
    // One retained job costs well over 256 bytes (its response line
    // alone carries a merged certificate), so a leak of every job in
    // the second batch would exceed this bound many times over.
    assert!(
        growth < 256 * 1024,
        "live heap grew by {growth} bytes over {batch} delivered jobs"
    );

    let summary = client.request("{\"request\": \"drain\"}").unwrap();
    assert_eq!(summary.f64_field("lost").unwrap(), 0.0, "{summary:?}");
    coordinator.join();
    let mut control = Client::connect(node.addr()).unwrap();
    let _ = control.request("{\"request\": \"drain\"}").unwrap();
    node.join();
    let _ = std::fs::remove_dir_all(&dir);
}
