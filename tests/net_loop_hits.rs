//! A response-cache hit is answered on the HTTP event loop, never on
//! the planning worker pool: with every pool worker blocked, a repeat
//! of a cached spec still gets its reports back at once. The test
//! occupies the process-global pool, so it lives in a test binary of
//! its own, where that stalls no other test.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use qrm_bench::{build_service, ServeConfig};
use qrm_net::{Client, NetConfig, Server};
use qrm_server::{BatchSpec, SubmitBatch};

#[derive(Default)]
struct Occupancy {
    running: usize,
    released: bool,
}

/// One blocking job on every pool worker, released on drop.
struct PoolBlocker {
    state: Arc<(Mutex<Occupancy>, Condvar)>,
}

impl PoolBlocker {
    /// Spawns `rayon::current_num_threads()` jobs and returns once every
    /// one of them is running, so no worker is left to take a job.
    fn occupy_every_worker() -> PoolBlocker {
        let state = Arc::new((Mutex::new(Occupancy::default()), Condvar::new()));
        let workers = rayon::current_num_threads();
        for _ in 0..workers {
            let state = Arc::clone(&state);
            rayon::spawn(move || {
                let (lock, changed) = &*state;
                let mut occupancy = lock.lock().unwrap();
                occupancy.running += 1;
                changed.notify_all();
                while !occupancy.released {
                    occupancy = changed.wait(occupancy).unwrap();
                }
            });
        }
        let blocker = PoolBlocker { state };
        let (lock, changed) = &*blocker.state;
        let (occupancy, timeout) = changed
            .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(10), |o| {
                o.running < workers
            })
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "only {} of {workers} pool workers took a blocking job",
            occupancy.running
        );
        drop(occupancy);
        blocker
    }
}

impl Drop for PoolBlocker {
    fn drop(&mut self) {
        let (lock, changed) = &*self.state;
        lock.lock().unwrap().released = true;
        changed.notify_all();
    }
}

#[test]
fn a_cache_hit_is_answered_while_every_pool_worker_is_blocked() {
    let serve = ServeConfig {
        workers: 1,
        cache_bytes: 1 << 20,
        ..ServeConfig::default()
    };
    let service = Arc::new(build_service(&serve));
    let server = Server::bind("127.0.0.1:0", service, NetConfig::default()).expect("bind");
    let mut client =
        Client::connect(server.addr().to_string()).with_read_timeout(Duration::from_secs(3));
    let request = SubmitBatch::new("qrm", BatchSpec::new(2, 12, 41));
    let miss = client.submit(&request).expect("the miss fills the cache");

    // Declared after the server, so a failing assertion releases the
    // pool before the server's drop waits for its in-flight requests.
    let blocker = PoolBlocker::occupy_every_worker();
    let hit = client
        .submit(&request)
        .expect("a hit must not wait for a pool worker");
    assert_eq!(hit.reports, miss.reports);
    let stats = client.stats().expect("stats");
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
    drop(blocker);
}
