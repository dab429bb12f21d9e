//! "No threads per request": the parallel engines run on the gang's
//! persistent helpers, so serving hundreds of `native`, `lockfree` and
//! `partitioned` requests never raises the process's thread count above
//! the pool's workers, the gang's helpers and this test's own threads.
//!
//! Linux only (it counts `/proc/self/task`); the test binary holds this
//! one test so no other test's threads are counted.

#[cfg(target_os = "linux")]
#[test]
fn parallel_engines_spawn_no_threads_per_request() {
    use db_serve::{EngineKind, Request, ServeConfig, Server, Status, Workload};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    const WORKERS: usize = 2;
    const REQUESTS: u64 = 300;

    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }

    // The harness's threads, this test's thread, and the sampler below.
    let own = threads() + 1;
    let helpers = db_core::gang::helpers();
    let limit = own + WORKERS + helpers;

    let server = Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    });
    let h = server.handle();
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(threads(), Ordering::AcqRel);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let engines = [
            EngineKind::Native,
            EngineKind::LockFree,
            EngineKind::Partitioned,
        ];
        // Two requests in flight at a time, so both workers (and any
        // helper) are busy together.
        for pair in 0..REQUESTS / 2 {
            let replies: Vec<_> = (0..2)
                .map(|k| {
                    let id = pair * 2 + k;
                    h.submit(Request {
                        id,
                        tenant: "t0".into(),
                        graph: ["grid:30:30", "dag:400", "path:2000"][(id % 3) as usize].into(),
                        workload: Workload::Dfs { root: 0 },
                        engine: engines[(id / 3 % 3) as usize],
                        deadline_ms: None,
                    })
                })
                .collect();
            for rx in replies {
                let r = rx.recv().expect("reply");
                assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            }
        }
        stop.store(true, Ordering::Release);
    });
    let m = server.shutdown();
    assert_eq!(m.completed, REQUESTS);
    let peak = peak.load(Ordering::Acquire);
    assert!(
        peak <= limit,
        "{peak} threads at peak; expected at most {limit} \
         ({own} own + {WORKERS} workers + {helpers} gang helpers)"
    );
}
